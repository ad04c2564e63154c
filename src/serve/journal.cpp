#include "serve/journal.hpp"

#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace g6::serve {

namespace {

using obs::JsonValue;
using obs::json_escape;

[[noreturn]] void fail(const std::string& what) {
  throw JournalError("journal: " + what);
}

// ---- encoding -----------------------------------------------------------

/// Shortest exact double: 17 significant digits round-trip binary64.
std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string quote(const std::string& s) { return '"' + json_escape(s) + '"'; }

void encode_spec(std::ostream& os, const JobSpec& s) {
  os << "{\"name\":" << quote(s.name) << ",\"model\":" << quote(s.model)
     << ",\"n\":" << s.n << ",\"w0\":" << num(s.w0)
     << ",\"t_end\":" << num(s.t_end) << ",\"eps\":" << num(s.eps)
     << ",\"eta\":" << num(s.eta) << ",\"seed\":" << s.seed
     << ",\"boards\":" << s.boards << ",\"boards_min\":" << s.boards_min
     << ",\"boards_max\":" << s.boards_max
     << ",\"priority\":" << quote(priority_name(s.priority))
     << ",\"deadline_rounds\":" << s.deadline_rounds
     << ",\"chaos_fail_quanta\":" << s.chaos_fail_quanta << "}";
}

void encode_config(std::ostream& os, const ServiceConfig& c) {
  os << "{\"max_queue_depth\":" << c.max_queue_depth
     << ",\"quantum_blocksteps\":" << c.quantum_blocksteps
     << ",\"max_requeues\":" << c.max_requeues
     << ",\"max_job_failures\":" << c.max_job_failures
     << ",\"backoff_base_rounds\":" << c.backoff_base_rounds
     << ",\"boards_per_host\":" << c.machine.boards_per_host
     << ",\"hosts_per_cluster\":" << c.machine.hosts_per_cluster
     << ",\"clusters\":" << c.machine.clusters
     << ",\"checkpoint_dir\":" << quote(c.durability.checkpoint_dir)
     << ",\"checkpoint_every_quanta\":" << c.durability.checkpoint_every_quanta
     << ",\"board_deaths\":[";
  for (std::size_t i = 0; i < c.board_deaths.size(); ++i) {
    if (i) os << ',';
    os << "{\"round\":" << c.board_deaths[i].round
       << ",\"board\":" << c.board_deaths[i].board << "}";
  }
  os << "]}";
}

// ---- decoding -----------------------------------------------------------

void check_keys(const JsonValue& obj, const std::set<std::string>& allowed,
                const std::string& where) {
  if (!obj.is_object()) fail(where + " must be a JSON object");
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    if (allowed.count(key) == 0) fail(where + ": unknown key '" + key + "'");
  }
  for (const std::string& key : allowed) {
    if (obj.find(key) == nullptr) {
      fail(where + ": missing required key '" + key + "'");
    }
  }
}

double number_at(const JsonValue& obj, const std::string& key,
                 const std::string& where) {
  const JsonValue* v = obj.find(key);
  G6_ASSERT(v != nullptr);  // check_keys enforced presence
  if (!v->is_number()) fail(where + ": key '" + key + "' must be a number");
  return v->as_number();
}

/// An integer key of type Int: unsigned fields take 0..max, signed ones
/// their whole range; fractions and out-of-range values are refused.
template <typename Int>
Int integer_at(const JsonValue& obj, const std::string& key,
               const std::string& where) {
  const std::optional<Int> v =
      obs::json_integer<Int>(number_at(obj, key, where));
  if (!v) {
    fail(where + ": key '" + key + "' must be an integer in [" +
         std::to_string(std::numeric_limits<Int>::min()) + ", " +
         std::to_string(std::numeric_limits<Int>::max()) + "]");
  }
  return *v;
}

std::uint64_t u64_at(const JsonValue& obj, const std::string& key,
                     const std::string& where) {
  return integer_at<std::uint64_t>(obj, key, where);
}

std::string string_at(const JsonValue& obj, const std::string& key,
                      const std::string& where) {
  const JsonValue* v = obj.find(key);
  G6_ASSERT(v != nullptr);
  if (!v->is_string()) fail(where + ": key '" + key + "' must be a string");
  return v->as_string();
}

JobSpec decode_spec(const JsonValue& j, const std::string& where) {
  check_keys(j,
             {"name", "model", "n", "w0", "t_end", "eps", "eta", "seed",
              "boards", "boards_min", "boards_max", "priority",
              "deadline_rounds", "chaos_fail_quanta"},
             where);
  JobSpec s;
  s.name = string_at(j, "name", where);
  s.model = string_at(j, "model", where);
  s.n = integer_at<std::size_t>(j, "n", where);
  s.w0 = number_at(j, "w0", where);
  s.t_end = number_at(j, "t_end", where);
  s.eps = number_at(j, "eps", where);
  s.eta = number_at(j, "eta", where);
  s.seed = integer_at<unsigned>(j, "seed", where);
  s.boards = integer_at<std::size_t>(j, "boards", where);
  s.boards_min = integer_at<std::size_t>(j, "boards_min", where);
  s.boards_max = integer_at<std::size_t>(j, "boards_max", where);
  const std::string prio = string_at(j, "priority", where);
  if (prio == "interactive") {
    s.priority = Priority::kInteractive;
  } else if (prio == "batch") {
    s.priority = Priority::kBatch;
  } else {
    fail(where + ": unknown priority '" + prio + "'");
  }
  s.deadline_rounds = u64_at(j, "deadline_rounds", where);
  s.chaos_fail_quanta = integer_at<int>(j, "chaos_fail_quanta", where);
  return s;
}

ServiceConfig decode_config(const JsonValue& j, const std::string& where) {
  check_keys(j,
             {"max_queue_depth", "quantum_blocksteps", "max_requeues",
              "max_job_failures", "backoff_base_rounds", "boards_per_host",
              "hosts_per_cluster", "clusters", "checkpoint_dir",
              "checkpoint_every_quanta", "board_deaths"},
             where);
  ServiceConfig c;
  c.max_queue_depth = integer_at<std::size_t>(j, "max_queue_depth", where);
  c.quantum_blocksteps =
      integer_at<std::size_t>(j, "quantum_blocksteps", where);
  c.max_requeues = integer_at<int>(j, "max_requeues", where);
  c.max_job_failures = integer_at<int>(j, "max_job_failures", where);
  c.backoff_base_rounds = u64_at(j, "backoff_base_rounds", where);
  c.machine.boards_per_host =
      integer_at<std::size_t>(j, "boards_per_host", where);
  c.machine.hosts_per_cluster =
      integer_at<std::size_t>(j, "hosts_per_cluster", where);
  c.machine.clusters = integer_at<std::size_t>(j, "clusters", where);
  c.durability.checkpoint_dir = string_at(j, "checkpoint_dir", where);
  c.durability.checkpoint_every_quanta =
      u64_at(j, "checkpoint_every_quanta", where);
  const JsonValue* deaths = j.find("board_deaths");
  if (!deaths->is_array()) fail(where + ".board_deaths must be an array");
  for (std::size_t i = 0; i < deaths->items().size(); ++i) {
    const std::string dwhere =
        where + ".board_deaths[" + std::to_string(i) + "]";
    const JsonValue& d = deaths->items()[i];
    check_keys(d, {"round", "board"}, dwhere);
    BoardDeath death;
    death.round = u64_at(d, "round", dwhere);
    death.board = integer_at<std::size_t>(d, "board", dwhere);
    c.board_deaths.push_back(death);
  }
  return c;
}

JournalRecordType type_from_name(const std::string& name,
                                 const std::string& where) {
  for (int t = 0; t <= static_cast<int>(JournalRecordType::kLeaseResized);
       ++t) {
    const auto rt = static_cast<JournalRecordType>(t);
    if (name == journal_record_type_name(rt)) return rt;
  }
  fail(where + ": unknown record type '" + name + "'");
}

}  // namespace

const char* journal_record_type_name(JournalRecordType t) {
  switch (t) {
    case JournalRecordType::kOpen:
      return "open";
    case JournalRecordType::kRecovered:
      return "recovered";
    case JournalRecordType::kSubmitted:
      return "submitted";
    case JournalRecordType::kAdmitted:
      return "admitted";
    case JournalRecordType::kRejected:
      return "rejected";
    case JournalRecordType::kStarted:
      return "started";
    case JournalRecordType::kQuantum:
      return "quantum";
    case JournalRecordType::kCheckpointed:
      return "checkpointed";
    case JournalRecordType::kRequeued:
      return "requeued";
    case JournalRecordType::kBoardDeath:
      return "board-death";
    case JournalRecordType::kFinished:
      return "finished";
    case JournalRecordType::kFailed:
      return "failed";
    case JournalRecordType::kQuarantined:
      return "quarantined";
    case JournalRecordType::kDrained:
      return "drained";
    case JournalRecordType::kLeaseResized:
      return "lease-resized";
  }
  return "?";
}

std::string encode_record(const JournalRecord& rec) {
  std::ostringstream os;
  os << "{\"seq\":" << rec.seq
     << ",\"type\":" << quote(journal_record_type_name(rec.type))
     << ",\"round\":" << rec.round;
  switch (rec.type) {
    case JournalRecordType::kOpen:
      os << ",\"schema\":" << quote(kJournalSchema) << ",\"config\":";
      encode_config(os, rec.config);
      break;
    case JournalRecordType::kRecovered:
      os << ",\"records\":" << rec.records;
      break;
    case JournalRecordType::kSubmitted:
      os << ",\"job\":" << rec.job << ",\"spec\":";
      encode_spec(os, rec.spec);
      break;
    case JournalRecordType::kAdmitted:
      os << ",\"job\":" << rec.job;
      break;
    case JournalRecordType::kRejected:
      os << ",\"job\":" << rec.job << ",\"reason\":" << quote(rec.reason)
         << ",\"message\":" << quote(rec.message);
      break;
    case JournalRecordType::kStarted:
      os << ",\"job\":" << rec.job << ",\"boards\":" << rec.boards;
      break;
    case JournalRecordType::kQuantum:
      os << ",\"job\":" << rec.job << ",\"quanta\":" << rec.quanta
         << ",\"t\":" << num(rec.t) << ",\"steps\":" << rec.steps
         << ",\"blocksteps\":" << rec.blocksteps;
      break;
    case JournalRecordType::kCheckpointed:
      os << ",\"job\":" << rec.job << ",\"quanta\":" << rec.quanta
         << ",\"file\":" << quote(rec.file) << ",\"tag\":" << quote(rec.tag);
      break;
    case JournalRecordType::kRequeued:
      os << ",\"job\":" << rec.job << ",\"reason\":" << quote(rec.reason)
         << ",\"requeues\":" << rec.requeues
         << ",\"failures\":" << rec.failures
         << ",\"hold_until\":" << rec.hold_until;
      break;
    case JournalRecordType::kBoardDeath:
      os << ",\"board\":" << rec.board;
      break;
    case JournalRecordType::kFinished:
      os << ",\"job\":" << rec.job << ",\"quanta\":" << rec.quanta
         << ",\"t\":" << num(rec.t) << ",\"e0\":" << num(rec.e0)
         << ",\"e_final\":" << num(rec.e_final) << ",\"steps\":" << rec.steps
         << ",\"blocksteps\":" << rec.blocksteps;
      break;
    case JournalRecordType::kFailed:
      os << ",\"job\":" << rec.job << ",\"reason\":" << quote(rec.reason)
         << ",\"message\":" << quote(rec.message);
      break;
    case JournalRecordType::kQuarantined:
      os << ",\"job\":" << rec.job << ",\"failures\":" << rec.failures
         << ",\"file\":" << quote(rec.file);
      break;
    case JournalRecordType::kDrained:
      os << ",\"reason\":" << quote(rec.reason);
      break;
    case JournalRecordType::kLeaseResized:
      os << ",\"job\":" << rec.job << ",\"boards\":" << rec.boards
         << ",\"reason\":" << quote(rec.reason);
      break;
  }
  os << "}";
  return os.str();
}

JournalRecord decode_record(std::string_view line) {
  JsonValue root;
  try {
    root = JsonValue::parse(line);
  } catch (const std::exception& e) {
    fail(std::string("record is not valid JSON: ") + e.what());
  }
  if (!root.is_object()) fail("record must be a JSON object");
  const JsonValue* type_v = root.find("type");
  if (type_v == nullptr || !type_v->is_string()) {
    fail("record: missing string key 'type'");
  }
  JournalRecord rec;
  rec.type = type_from_name(type_v->as_string(), "record");
  const std::string where =
      std::string("record '") + journal_record_type_name(rec.type) + "'";

  std::set<std::string> keys = {"seq", "type", "round"};
  switch (rec.type) {
    case JournalRecordType::kOpen:
      keys.insert({"schema", "config"});
      break;
    case JournalRecordType::kRecovered:
      keys.insert("records");
      break;
    case JournalRecordType::kSubmitted:
      keys.insert({"job", "spec"});
      break;
    case JournalRecordType::kAdmitted:
      keys.insert("job");
      break;
    case JournalRecordType::kRejected:
    case JournalRecordType::kFailed:
      keys.insert({"job", "reason", "message"});
      break;
    case JournalRecordType::kStarted:
      keys.insert({"job", "boards"});
      break;
    case JournalRecordType::kQuantum:
      keys.insert({"job", "quanta", "t", "steps", "blocksteps"});
      break;
    case JournalRecordType::kCheckpointed:
      keys.insert({"job", "quanta", "file", "tag"});
      break;
    case JournalRecordType::kRequeued:
      keys.insert({"job", "reason", "requeues", "failures", "hold_until"});
      break;
    case JournalRecordType::kBoardDeath:
      keys.insert("board");
      break;
    case JournalRecordType::kFinished:
      keys.insert(
          {"job", "quanta", "t", "e0", "e_final", "steps", "blocksteps"});
      break;
    case JournalRecordType::kQuarantined:
      keys.insert({"job", "failures", "file"});
      break;
    case JournalRecordType::kDrained:
      keys.insert("reason");
      break;
    case JournalRecordType::kLeaseResized:
      keys.insert({"job", "boards", "reason"});
      break;
  }
  check_keys(root, keys, where);

  rec.seq = u64_at(root, "seq", where);
  rec.round = u64_at(root, "round", where);
  if (keys.count("job")) rec.job = u64_at(root, "job", where);
  if (keys.count("schema")) {
    const std::string schema = string_at(root, "schema", where);
    if (schema != kJournalSchema) {
      fail(where + ": schema '" + schema + "' (expected " + kJournalSchema +
           ")");
    }
  }
  if (keys.count("config")) {
    rec.config = decode_config(root.at("config"), where + ".config");
  }
  if (keys.count("spec")) {
    rec.spec = decode_spec(root.at("spec"), where + ".spec");
  }
  if (keys.count("records")) rec.records = u64_at(root, "records", where);
  if (keys.count("reason")) rec.reason = string_at(root, "reason", where);
  if (keys.count("message")) rec.message = string_at(root, "message", where);
  if (keys.count("file")) rec.file = string_at(root, "file", where);
  if (keys.count("tag")) rec.tag = string_at(root, "tag", where);
  if (keys.count("quanta")) rec.quanta = u64_at(root, "quanta", where);
  if (keys.count("t")) rec.t = number_at(root, "t", where);
  if (keys.count("e0")) rec.e0 = number_at(root, "e0", where);
  if (keys.count("e_final")) rec.e_final = number_at(root, "e_final", where);
  if (keys.count("steps")) rec.steps = u64_at(root, "steps", where);
  if (keys.count("blocksteps")) {
    rec.blocksteps = u64_at(root, "blocksteps", where);
  }
  if (keys.count("requeues")) {
    rec.requeues = integer_at<int>(root, "requeues", where);
  }
  if (keys.count("failures")) {
    rec.failures = integer_at<int>(root, "failures", where);
  }
  if (keys.count("hold_until")) {
    rec.hold_until = u64_at(root, "hold_until", where);
  }
  if (keys.count("board")) {
    rec.board = integer_at<std::size_t>(root, "board", where);
  }
  if (keys.count("boards")) {
    rec.boards = integer_at<std::size_t>(root, "boards", where);
  }
  return rec;
}

JournalReplay replay_journal(const std::string& path) {
  std::ifstream is(path);
  if (!is) fail("cannot open " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string content = buf.str();
  if (content.empty()) fail(path + " is empty");

  JournalReplay replay;
  std::size_t pos = 0;
  std::uint64_t line_no = 0;
  while (pos < content.size()) {
    const std::size_t nl = content.find('\n', pos);
    if (nl == std::string::npos) {
      // Unterminated final line: the one torn write the append protocol
      // permits. Drop it — the transition it described never took effect.
      replay.torn_tail = true;
      break;
    }
    ++line_no;
    const std::string_view line(content.data() + pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) fail(path + ": empty line " + std::to_string(line_no));
    JournalRecord rec;
    try {
      rec = decode_record(line);
    } catch (const JournalError& e) {
      fail(path + " line " + std::to_string(line_no) + ": " + e.what());
    }
    if (rec.seq != line_no) {
      fail(path + " line " + std::to_string(line_no) + ": sequence number " +
           std::to_string(rec.seq) + " (expected " + std::to_string(line_no) +
           ")");
    }
    if (line_no == 1 && rec.type != JournalRecordType::kOpen) {
      fail(path + ": first record must be 'open'");
    }
    if (line_no > 1 && rec.type == JournalRecordType::kOpen) {
      fail(path + " line " + std::to_string(line_no) +
           ": duplicate 'open' record");
    }
    replay.records.push_back(std::move(rec));
    replay.complete_bytes = pos;
  }
  if (replay.records.empty()) {
    fail(path + ": no complete records (torn 'open' line?)");
  }
  return replay;
}

std::string job_run_tag(const JobSpec& spec) {
  std::ostringstream os;
  os.precision(17);
  os << "serve job=" << spec.name << " model=" << spec.model
     << " n=" << spec.n << " w0=" << spec.w0 << " t_end=" << spec.t_end
     << " eps=" << spec.eps << " eta=" << spec.eta << " seed=" << spec.seed
     << " boards=" << spec.boards;
  return os.str();
}

Journal::Journal(const std::string& path, bool truncate,
                 std::uint64_t start_seq)
    : log_(path, truncate), next_seq_(start_seq) {
  G6_REQUIRE_MSG(start_seq >= 1, "journal sequence numbers are 1-based");
}

void Journal::append(JournalRecord rec) {
  rec.seq = next_seq_++;
  log_.append(encode_record(rec));
}

}  // namespace g6::serve
