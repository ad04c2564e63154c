#include "fault/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "fault/checksum.hpp"
#include "util/errors.hpp"
#include "util/check.hpp"
#include "util/fileio.hpp"

namespace g6::fault {

namespace {
constexpr const char* kSchema = "grape6-checkpoint-v1";

/// The whitespace-separated fields of a checkpoint, read in place: the
/// `istream >>` grammar of the writer's output, without copying the text
/// or going through a stream. Numbers parse with std::from_chars, which
/// rounds correctly, so 17 digits still round-trip binary64 exactly. As
/// on a stream, a failed read sets a sticky error that operator bool
/// reports.
class Fields {
 public:
  explicit Fields(std::string_view text) : text_(text) {}

  /// The next run of non-blank characters; empty at the end.
  std::string_view token() {
    while (pos_ < text_.size() && is_blank(text_[pos_])) ++pos_;
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !is_blank(text_[pos_])) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  /// The rest of the current line, without its newline.
  std::string_view line() {
    const std::size_t end = std::min(text_.find('\n', pos_), text_.size());
    const std::string_view rest = text_.substr(pos_, end - pos_);
    pos_ = std::min(end + 1, text_.size());
    return rest;
  }

  /// One number that must fill a whole token. Like `istream >>`, refuses
  /// inf and nan.
  template <class T>
  Fields& operator>>(T& value) {
    const std::string_view tok = token();
    const char* last = tok.data() + tok.size();
    const auto [end, ec] = std::from_chars(tok.data(), last, value);
    if (ec != std::errc() || end != last) ok_ = false;
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(value)) ok_ = false;
    }
    return *this;
  }

  explicit operator bool() const { return ok_; }

  /// Bytes not yet consumed: every record still to come takes at least
  /// one, so a count above this cannot be honest.
  std::size_t remaining() const { return text_.size() - pos_; }

 private:
  static bool is_blank(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
           c == '\f';
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

void expect_key(Fields& in, const char* key) {
  const std::string_view tok = in.token();
  if (tok != key) {
    throw FaultError(std::string("checkpoint: expected '") + key + "', got '" +
                     std::string(tok) + "'");
  }
}

std::uint64_t body_digest(std::string_view body) {
  Fnv1a64 h;
  h.fold(body);
  return h.digest();
}

RunCheckpoint parse_body(Fields& in);

/// Verify the checksum trailer, then parse the body in place.
RunCheckpoint parse_checkpoint(std::string_view content);

/// Serialize the checkpoint body (everything up to and including "end\n").
void write_body(std::ostream& os, const RunCheckpoint& cp) {
  const HermiteState& s = cp.state;
  const auto flags = os.flags();
  os.precision(17);  // round-trips IEEE binary64 exactly

  os << kSchema << '\n';
  os << "tag " << cp.run_tag << '\n';
  os << "time " << s.time << '\n';
  os << "steps " << s.total_steps << ' ' << s.total_blocksteps << '\n';
  os << "e0 " << cp.e0 << '\n';
  os << "snap " << cp.next_snap << ' ' << cp.snap_id << '\n';
  os << "n " << s.particles.size() << '\n';
  for (std::size_t i = 0; i < s.particles.size(); ++i) {
    const JParticle& p = s.particles[i];
    os << "p " << p.mass << ' ' << p.t0 << ' ' << p.pos.x << ' ' << p.pos.y
       << ' ' << p.pos.z << ' ' << p.vel.x << ' ' << p.vel.y << ' ' << p.vel.z
       << ' ' << p.acc.x << ' ' << p.acc.y << ' ' << p.acc.z << ' ' << p.jerk.x
       << ' ' << p.jerk.y << ' ' << p.jerk.z << ' ' << p.snap.x << ' '
       << p.snap.y << ' ' << p.snap.z << ' ' << s.dt[i] << '\n';
    const Force& f = s.last_force[i];
    os << "f " << f.acc.x << ' ' << f.acc.y << ' ' << f.acc.z << ' ' << f.jerk.x
       << ' ' << f.jerk.y << ' ' << f.jerk.z << ' ' << f.pot << '\n';
  }
  os << "nexp " << cp.exponents.size() << '\n';
  for (const BlockExponents& e : cp.exponents) {
    os << "x " << e.acc << ' ' << e.jerk << ' ' << e.pot << '\n';
  }
  os << "end\n";
  os.flags(flags);
}

}  // namespace

void write_checkpoint(std::ostream& os, const RunCheckpoint& cp) {
  G6_REQUIRE_MSG(cp.run_tag.find('\n') == std::string::npos,
                 "checkpoint run_tag must be a single line");
  const HermiteState& s = cp.state;
  G6_REQUIRE(s.dt.size() == s.particles.size());
  G6_REQUIRE(s.last_force.size() == s.particles.size());
  std::ostringstream body;
  write_body(body, cp);
  const std::string bytes = body.str();
  os << bytes;
  os << "sum " << std::hex << std::setw(16) << std::setfill('0')
     << body_digest(bytes) << std::dec << std::setfill(' ') << '\n';
}

RunCheckpoint read_checkpoint(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse_checkpoint(buf.str());
}

namespace {

RunCheckpoint parse_checkpoint(std::string_view content) {
  // The trailer covers every byte of the body, so validation happens
  // before any field is interpreted.
  const std::size_t marker = content.rfind("end\nsum ");
  if (marker == std::string_view::npos) {
    throw FaultError(
        "checkpoint: missing checksum trailer (truncated or pre-trailer "
        "format)");
  }
  const std::string_view bytes = content.substr(0, marker + 4);  // keep "end\n"
  Fields trailer(content.substr(marker + 4));
  const std::string_view tok = trailer.token();
  const std::string_view hex = trailer.token();
  std::uint64_t stored = 0;
  const auto [end, ec] =
      std::from_chars(hex.data(), hex.data() + hex.size(), stored, 16);
  if (tok != "sum" || ec != std::errc() || end != hex.data() + hex.size()) {
    throw FaultError("checkpoint: malformed checksum trailer");
  }
  const std::uint64_t computed = body_digest(bytes);
  if (stored != computed) {
    std::ostringstream os;
    os << "checkpoint: checksum mismatch (stored " << std::hex << stored
       << ", computed " << computed << ") — file is corrupt";
    throw FaultError(os.str());
  }

  Fields body(bytes);
  return parse_body(body);
}

RunCheckpoint parse_body(Fields& in) {
  const std::string_view schema = in.token();
  if (schema != kSchema) {
    throw FaultError("checkpoint: bad schema line (expected " +
                     std::string(kSchema) + ")");
  }
  RunCheckpoint cp;
  expect_key(in, "tag");
  cp.run_tag = std::string(in.line());
  if (!cp.run_tag.empty() && cp.run_tag.front() == ' ') cp.run_tag.erase(0, 1);

  HermiteState& s = cp.state;
  expect_key(in, "time");
  in >> s.time;
  expect_key(in, "steps");
  in >> s.total_steps >> s.total_blocksteps;
  expect_key(in, "e0");
  in >> cp.e0;
  expect_key(in, "snap");
  in >> cp.next_snap >> cp.snap_id;
  expect_key(in, "n");
  std::size_t n = 0;
  in >> n;
  if (!in) throw FaultError("checkpoint: truncated header");
  // Bound the allocation by the file before trusting the count.
  if (n > in.remaining()) {
    throw FaultError("checkpoint: particle count exceeds the file");
  }

  s.particles.resize(n);
  s.dt.resize(n);
  s.last_force.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    expect_key(in, "p");
    JParticle& p = s.particles[i];
    in >> p.mass >> p.t0 >> p.pos.x >> p.pos.y >> p.pos.z >> p.vel.x >>
        p.vel.y >> p.vel.z >> p.acc.x >> p.acc.y >> p.acc.z >> p.jerk.x >>
        p.jerk.y >> p.jerk.z >> p.snap.x >> p.snap.y >> p.snap.z >> s.dt[i];
    expect_key(in, "f");
    Force& f = s.last_force[i];
    in >> f.acc.x >> f.acc.y >> f.acc.z >> f.jerk.x >> f.jerk.y >> f.jerk.z >>
        f.pot;
    if (!in) {
      std::ostringstream os;
      os << "checkpoint: truncated particle record " << i;
      throw FaultError(os.str());
    }
  }
  expect_key(in, "nexp");
  std::size_t m = 0;
  in >> m;
  if (!in || m > in.remaining()) {
    throw FaultError("checkpoint: truncated exponent table");
  }
  cp.exponents.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    expect_key(in, "x");
    in >> cp.exponents[i].acc >> cp.exponents[i].jerk >> cp.exponents[i].pot;
  }
  if (!in) throw FaultError("checkpoint: truncated exponent table");
  expect_key(in, "end");
  return cp;
}

}  // namespace

void save_checkpoint(const std::string& path, const RunCheckpoint& cp) {
  // Durable (not just atomic): recovery depends on this file existing
  // with exactly the content append()ed to the journal before the crash.
  write_file_atomic_durable(
      path, [&cp](std::ostream& os) { write_checkpoint(os, cp); });
}

void save_checkpoint_rotating(const std::string& path,
                              const RunCheckpoint& cp) {
  // Best-effort rotation: if `path` does not exist yet the rename simply
  // fails and there is no previous generation to preserve.
  std::rename(path.c_str(), (path + ".prev").c_str());
  save_checkpoint(path, cp);
}

RunCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw FaultError("checkpoint: cannot open " + path);
  try {
    // One read into a buffer of the file's size; a stream that cannot
    // seek (a pipe) is slurped instead.
    const std::streamoff size = is.seekg(0, std::ios::end).tellg();
    if (size < 0) {
      is.clear();
      return read_checkpoint(is);
    }
    std::string content(static_cast<std::size_t>(size), '\0');
    if (!is.seekg(0).read(content.data(), size)) {
      throw FaultError("checkpoint: cannot read " + path);
    }
    return parse_checkpoint(content);
  } catch (const FaultError&) {
    throw;
  } catch (const std::exception& e) {
    throw FaultError("checkpoint: parse error in " + path + ": " + e.what());
  }
}

RunCheckpoint load_checkpoint_resilient(const std::string& path,
                                        bool* used_prev) {
  if (used_prev != nullptr) *used_prev = false;
  std::string primary_error;
  try {
    return load_checkpoint(path);
  } catch (const FaultError& e) {
    primary_error = e.what();
  }
  try {
    RunCheckpoint cp = load_checkpoint(path + ".prev");
    if (used_prev != nullptr) *used_prev = true;
    return cp;
  } catch (const FaultError& e) {
    throw FaultError("checkpoint: no valid generation at " + path +
                     " (primary: " + primary_error +
                     "; fallback: " + e.what() + ")");
  }
}

}  // namespace g6::fault
