#ifndef E2EBENCH_STREAM_H_
#define E2EBENCH_STREAM_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "ariel/database.h"

namespace e2e {

/// What a request is for, which decides where its latency is recorded.
enum class Kind : uint8_t {
  kRead,      // read-only retrieve
  kWrite,     // committed mutating command (auto-commit)
  kBegin,     // `begin` of an explicit transaction
  kTxnWrite,  // mutating command inside a transaction that will abort
  kAbort,     // `abort`: rollback of the open transaction
};

/// One request of a generated stream. `expect` is the exact row count of a
/// read or the affected-tuple count of a write; -1 leaves it unchecked.
struct Request {
  Kind kind = Kind::kRead;
  std::string text;
  int64_t expect = -1;
  /// Writes of server_mix: the emp key written and its new salary, so the
  /// load generator can predict the final table.
  int64_t key = -1;
  int64_t value = 0;
};

/// Deterministic 64-bit generator (SplitMix64): the same seed yields the
/// same stream on every platform, unlike the std distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }

 private:
  uint64_t state_;
};

/// One client's request stream. Next() is deterministic in (workload, seed,
/// client); requests of an explicit transaction come out consecutively.
class StreamGen {
 public:
  virtual ~StreamGen() = default;
  Request Next();

 protected:
  StreamGen() = default;
  /// Appends the next command group (one request, or a whole
  /// begin … abort transaction) to `out`.
  virtual void Refill(std::deque<Request>* out) = 0;

 private:
  std::deque<Request> pending_;
};

/// Engine setup as command text: data scripts (schema, load, index builds),
/// one `define rule` per rule, then settle scripts that drain the conflict
/// sets activation primed and empty the rules' log relation.
struct Setup {
  std::vector<std::string> data;
  std::vector<std::string> rules;
  std::vector<std::string> settle;
};

struct Workload {
  std::string name;
  bool server = false;  // driven through a server child
  int clients = 1;      // closed-loop clients (connections for server)
  int read_threads = 0;  // ARIEL_READ_THREADS of a server child
  int setup_reps = 5;    // setups per run; setup_s is their median
  ariel::DatabaseOptions options;  // engine options, in process or child
  Setup setup;
  uint64_t seed = 0;

  std::unique_ptr<StreamGen> Stream(int client) const;
};

/// Builds a named workload for a seed; false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

/// Names of every workload, in documentation order.
std::vector<std::string> WorkloadNames();

/// server_mix: number of emp rows and the salary of row `key` after setup
/// (the load generator's model of the table starts from these).
inline constexpr int64_t kServerMixRows = 10000;
int64_t ServerMixInitialSal(uint64_t seed, int64_t key);

}  // namespace e2e

#endif  // E2EBENCH_STREAM_H_
