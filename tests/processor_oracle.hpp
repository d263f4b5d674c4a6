// The full recompute: the Data Processor's first algorithm, kept as the
// test oracle.
//
// The server's Data Processor feeds per-app accumulators only the blobs
// past a raw_id cursor (server/data_processor.hpp). This recompute decodes
// every stored upload of every app and extracts each feature from scratch,
// the way the processor worked before it kept state between passes. It is
// the reference the accumulators are held to: tests/test_perf.cpp and
// tests/test_chaos.cpp require bit-identical feature rows — value,
// n_samples, ids — after every pass, through restores, reprimes, corrupt
// blobs and chaos. It reads the database and writes nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_time.hpp"
#include "db/value.hpp"
#include "server/server.hpp"

namespace sor::server::oracle {

struct FullRecompute {
  // The feature_data rows a processing pass at `now` would leave, for
  // every deployed app, in ascending feature_id order (FeatureRows order).
  std::vector<db::Row> rows;
  std::uint64_t blobs_decoded = 0;
  std::uint64_t blobs_rejected = 0;  // bodies that fail to decode
};

// Recompute every app's features from all of its raw_data rows, with the
// server's DataProcessorOptions.
[[nodiscard]] FullRecompute RecomputeFeatures(SensingServer& server,
                                              SimTime now);

}  // namespace sor::server::oracle
