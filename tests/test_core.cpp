// Unit tests for the sor::core facade and cross-cutting system glue:
// default scripts, configuration validation, ranking explanations, and a
// parser robustness sweep.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/system.hpp"
#include "phone/task_instance.hpp"
#include "script/host_api.hpp"
#include "script/parser.hpp"
#include "server/visualization.hpp"

namespace sor {
namespace {

// --- default sensing scripts ----------------------------------------------------

// Collect the names of all functions an expression/statement tree calls.
void CollectCalls(const script::Expr& e, std::vector<std::string>& out);
void CollectCalls(const script::Stmt& s, std::vector<std::string>& out) {
  if (s.expr) CollectCalls(*s.expr, out);
  if (s.target_index) CollectCalls(*s.target_index, out);
  if (s.for_start) CollectCalls(*s.for_start, out);
  if (s.for_stop) CollectCalls(*s.for_stop, out);
  if (s.for_step) CollectCalls(*s.for_step, out);
  for (const auto& child : s.body) CollectCalls(*child, out);
  for (const auto& child : s.else_body) CollectCalls(*child, out);
}
void CollectCalls(const script::Expr& e, std::vector<std::string>& out) {
  if (e.kind == script::Expr::Kind::kCall) out.push_back(e.text);
  if (e.lhs) CollectCalls(*e.lhs, out);
  if (e.rhs) CollectCalls(*e.rhs, out);
  for (const auto& arg : e.args) CollectCalls(*arg, out);
}

TEST(DefaultScript, ParsesAndUsesOnlyKnownFunctions) {
  for (auto category : {world::PlaceCategory::kHikingTrail,
                        world::PlaceCategory::kCoffeeShop}) {
    const std::string src = core::DefaultScript(category);
    Result<script::Program> program = script::Parse(src);
    ASSERT_TRUE(program.ok()) << program.error().str();

    std::vector<std::string> calls;
    for (const auto& stmt : program.value().statements)
      CollectCalls(*stmt, calls);
    EXPECT_FALSE(calls.empty());
    for (const std::string& fn : calls) {
      const bool is_acquisition =
          script::AcquisitionSensor(fn).has_value();
      const bool is_builtin =
          fn == "print" || fn == "len" || fn == "mean" || fn == "stddev";
      EXPECT_TRUE(is_acquisition || is_builtin) << fn;
    }
  }
}

TEST(DefaultScript, TrailScriptReadsEveryTrailFeatureSensor) {
  const std::string src =
      core::DefaultScript(world::PlaceCategory::kHikingTrail);
  // The five §V-A features need these acquisition calls.
  for (const char* fn :
       {"get_temperature_readings", "get_humidity_readings",
        "get_accelerometer_readings", "get_altitude_readings",
        "get_location"}) {
    EXPECT_NE(src.find(fn), std::string::npos) << fn;
  }
}

TEST(DefaultScript, CoffeeScriptReadsEveryCoffeeFeatureSensor) {
  const std::string src =
      core::DefaultScript(world::PlaceCategory::kCoffeeShop);
  for (const char* fn :
       {"get_temperature_readings", "get_light_readings",
        "get_noise_readings", "get_wifi_readings"}) {
    EXPECT_NE(src.find(fn), std::string::npos) << fn;
  }
}

// --- configuration validation -----------------------------------------------------

TEST(SystemConfig, RejectsBadInputs) {
  core::System system;
  core::FieldTestConfig config;
  config.budget_per_user = -1;
  EXPECT_EQ(system.RunFieldTest(world::MakeCoffeeShopScenario(), config)
                .code(),
            Errc::kInvalidArgument);
  world::Scenario empty;
  EXPECT_EQ(system.RunFieldTest(empty, core::FieldTestConfig{}).code(),
            Errc::kInvalidArgument);
}

// --- ranking explanation ------------------------------------------------------------

TEST(Explanation, ShowsIndividualRankingsAndFinal) {
  rank::FeatureMatrix m({"A", "B"},
                        {{"noise", rank::PrefDirection::kMinimize, 0},
                         {"temp", rank::PrefDirection::kTarget, 73}});
  m.set(0, 0, 0.1);
  m.set(0, 1, 73.0);
  m.set(1, 0, 0.5);
  m.set(1, 1, 60.0);
  const rank::PersonalizableRanker ranker(m);
  rank::UserProfile p;
  p.name = "u";
  p.prefs = {rank::FeaturePreference::PreferMin(5),
             rank::FeaturePreference::Prefer(73, 2)};
  Result<rank::RankingOutcome> outcome = ranker.Rank(p);
  ASSERT_TRUE(outcome.ok());
  const std::string text =
      server::RenderRankingExplanation(m, outcome.value());
  EXPECT_NE(text.find("noise"), std::string::npos);
  EXPECT_NE(text.find("weight 5"), std::string::npos);
  EXPECT_NE(text.find("A > B"), std::string::npos);
  EXPECT_NE(text.find("=> final: A > B"), std::string::npos);
}

// --- parser robustness sweep -------------------------------------------------------

TEST(ParserRobustness, RandomTokenSoupNeverCrashes) {
  static const char* kFragments[] = {
      "local", "x", "=", "1", "(", ")", "{", "}", "[", "]", "if", "then",
      "end", "for", "while", "do", "function", "return", "break", "and",
      "or", "not", "..", ",", "+", "-", "*", "/", "\"s\"", "nil", "true",
      "#", "<", ">=", "~=", "print",
  };
  Rng rng(606);
  for (int round = 0; round < 2'000; ++round) {
    std::string src;
    const int len = static_cast<int>(rng.uniform_int(1, 30));
    for (int i = 0; i < len; ++i) {
      src += kFragments[rng.uniform_int(
          0, static_cast<int>(std::size(kFragments)) - 1)];
      src += ' ';
    }
    (void)script::Parse(src);  // must not crash or hang; result irrelevant
  }
  SUCCEED();
}

TEST(ParserRobustness, DeeplyNestedExpressionsBounded) {
  // 300 nested parens: must parse (or fail) without stack issues.
  std::string src = "x = ";
  for (int i = 0; i < 300; ++i) src += '(';
  src += '1';
  for (int i = 0; i < 300; ++i) src += ')';
  EXPECT_TRUE(script::Parse(src).ok());
}

}  // namespace
}  // namespace sor
