#pragma once
// Job manifests — the JSON a tenant hands tools/grape6_served.
//
// Schema `grape6-serve-manifest-v1`:
//
//   {
//     "schema": "grape6-serve-manifest-v1",
//     "service": {                       // optional, all keys optional
//       "max_queue_depth": 64,
//       "quantum_blocksteps": 16,
//       "max_requeues": 2,
//       "boards_per_host": 4,            // machine shape overrides
//       "hosts_per_cluster": 4,
//       "clusters": 1,
//       "board_deaths": [ {"round": 3, "board": 0}, ... ]
//     },
//     "jobs": [
//       { "name": "prod-a",              // required, unique
//         "model": "plummer",            // optional, defaults as JobSpec
//         "n": 256, "t_end": 0.25, "eta": 0.02, "eps": 0.015625,
//         "w0": 6.0, "seed": 1, "boards": 2,
//         "boards_min": 1, "boards_max": 4,  // autoscaling lease bounds
//         "priority": "batch" },         // "interactive" | "batch"
//       ...
//     ]
//   }
//
// Parsing is strict: an unknown key anywhere, a wrong type, a duplicate
// job name or a missing required key throws ManifestError with the
// offending key in the message — a manifest typo surfaces at load time,
// not as a silently mis-specified simulation.

#include <stdexcept>
#include <string>
#include <vector>

#include "serve/types.hpp"

namespace g6::serve {

/// Manifest syntax or schema violation; what() names the offending key.
class ManifestError : public std::runtime_error {
 public:
  explicit ManifestError(const std::string& what)
      : std::runtime_error(what) {}
};

/// A parsed manifest: service-level knobs plus the job list, in file
/// order (submission order — it fixes FIFO ties).
struct Manifest {
  ServiceConfig service;
  std::vector<JobSpec> jobs;
};

/// Parse manifest text; throws ManifestError on any schema violation.
Manifest parse_manifest(const std::string& text);

/// Read and parse a manifest file; throws ManifestError (also for I/O).
Manifest load_manifest(const std::string& path);

inline constexpr const char* kManifestSchema = "grape6-serve-manifest-v1";

}  // namespace g6::serve
