#include "trace/trace.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory_resource>
#include <sstream>
#include <string_view>

#include "core/check.h"

namespace pfs {

const char* TraceOpName(TraceOp op) {
  switch (op) {
    case TraceOp::kOpen:
      return "OPEN";
    case TraceOp::kClose:
      return "CLOSE";
    case TraceOp::kRead:
      return "READ";
    case TraceOp::kWrite:
      return "WRITE";
    case TraceOp::kStat:
      return "STAT";
    case TraceOp::kUnlink:
      return "UNLINK";
    case TraceOp::kTruncate:
      return "TRUNC";
    case TraceOp::kMkdir:
      return "MKDIR";
    case TraceOp::kRmdir:
      return "RMDIR";
    case TraceOp::kRename:
      return "RENAME";
  }
  return "?";
}

Result<TraceOp> TraceOpFromName(const std::string& name) {
  static const std::map<std::string, TraceOp> kOps = {
      {"OPEN", TraceOp::kOpen},     {"CREAT", TraceOp::kOpen},  {"CLOSE", TraceOp::kClose},
      {"READ", TraceOp::kRead},     {"WRITE", TraceOp::kWrite}, {"STAT", TraceOp::kStat},
      {"UNLINK", TraceOp::kUnlink}, {"TRUNC", TraceOp::kTruncate},
      {"MKDIR", TraceOp::kMkdir},   {"RMDIR", TraceOp::kRmdir}, {"RENAME", TraceOp::kRename},
  };
  auto it = kOps.find(name);
  if (it == kOps.end()) {
    return Status(ErrorCode::kCorrupt, "unknown trace op " + name);
  }
  return it->second;
}

std::string EncodeSpriteRecord(const TraceRecord& r) {
  std::ostringstream out;
  out << r.time_us << ' ' << r.client << ' ';
  // Creation piggybacks on OPEN via the CREAT verb, like the original traces'
  // open-mode flags.
  if (r.op == TraceOp::kOpen && r.create) {
    out << "CREAT";
  } else {
    out << TraceOpName(r.op);
  }
  out << ' ' << r.path;
  switch (r.op) {
    case TraceOp::kRead:
    case TraceOp::kWrite:
      out << ' ' << r.offset << ' ' << r.length;
      break;
    case TraceOp::kTruncate:
      out << ' ' << r.length;
      break;
    case TraceOp::kRename:
      out << ' ' << r.path2;
      break;
    default:
      break;
  }
  return out.str();
}

Result<TraceRecord> DecodeSpriteRecord(const std::string& line) {
  std::istringstream in(line);
  TraceRecord r;
  std::string op_name;
  if (!(in >> r.time_us >> r.client >> op_name >> r.path)) {
    return Status(ErrorCode::kCorrupt, "short trace record: " + line);
  }
  if (op_name == "CREAT") {
    r.op = TraceOp::kOpen;
    r.create = true;
  } else {
    PFS_ASSIGN_OR_RETURN(r.op, TraceOpFromName(op_name));
  }
  switch (r.op) {
    case TraceOp::kRead:
    case TraceOp::kWrite:
      if (!(in >> r.offset >> r.length)) {
        return Status(ErrorCode::kCorrupt, "bad io record: " + line);
      }
      break;
    case TraceOp::kTruncate:
      if (!(in >> r.length)) {
        return Status(ErrorCode::kCorrupt, "bad trunc record: " + line);
      }
      break;
    case TraceOp::kRename:
      if (!(in >> r.path2)) {
        return Status(ErrorCode::kCorrupt, "bad rename record: " + line);
      }
      break;
    default:
      break;
  }
  return r;
}

Status SpriteTraceWriter::WriteFile(const std::string& path,
                                    const std::vector<TraceRecord>& records) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status(ErrorCode::kIoError, "cannot write " + path);
  }
  for (const TraceRecord& r : records) {
    out << EncodeSpriteRecord(r) << '\n';
  }
  return out.good() ? OkStatus() : Status(ErrorCode::kIoError, "short write " + path);
}

Result<std::vector<TraceRecord>> SpriteTraceReader::Parse(const std::string& text) {
  std::vector<TraceRecord> records;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    PFS_ASSIGN_OR_RETURN(TraceRecord r, DecodeSpriteRecord(line));
    records.push_back(std::move(r));
  }
  return records;
}

Result<std::vector<TraceRecord>> SpriteTraceReader::ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status(ErrorCode::kIoError, "cannot read " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str());
}

std::string EncodeCodaTrace(const std::vector<TraceRecord>& records) {
  // Group per client into open..close sessions; non-session ops are emitted
  // as standalone "- OP" lines under a pseudo-session.
  std::ostringstream out;
  for (const TraceRecord& r : records) {
    switch (r.op) {
      case TraceOp::kOpen:
        out << "S " << r.client << ' ' << r.time_us << ' ' << r.path
            << (r.create ? " new" : "") << '\n';
        break;
      case TraceOp::kClose:
        out << "E " << r.client << ' ' << r.time_us << ' ' << r.path << '\n';
        break;
      case TraceOp::kRead:
      case TraceOp::kWrite:
        out << "- " << r.client << ' ' << r.time_us << ' '
            << (r.op == TraceOp::kRead ? "READ" : "WRITE") << ' ' << r.path << ' '
            << r.offset << ' ' << r.length << '\n';
        break;
      default:
        out << "! " << r.client << ' ' << r.time_us << ' ' << TraceOpName(r.op) << ' '
            << r.path << ' ' << r.length << ' ' << r.path2 << '\n';
        break;
    }
  }
  return out.str();
}

Result<std::vector<TraceRecord>> CodaTraceReader::Parse(const std::string& text) {
  std::vector<TraceRecord> records;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ls(line);
    char tag;
    TraceRecord r;
    if (!(ls >> tag >> r.client >> r.time_us)) {
      return Status(ErrorCode::kCorrupt, "bad coda record: " + line);
    }
    switch (tag) {
      case 'S': {
        std::string flag;
        if (!(ls >> r.path)) {
          return Status(ErrorCode::kCorrupt, "bad coda session: " + line);
        }
        r.op = TraceOp::kOpen;
        if (ls >> flag && flag == "new") {
          r.create = true;
        }
        break;
      }
      case 'E':
        if (!(ls >> r.path)) {
          return Status(ErrorCode::kCorrupt, "bad coda end: " + line);
        }
        r.op = TraceOp::kClose;
        break;
      case '-': {
        std::string op_name;
        if (!(ls >> op_name >> r.path >> r.offset >> r.length)) {
          return Status(ErrorCode::kCorrupt, "bad coda io: " + line);
        }
        PFS_ASSIGN_OR_RETURN(r.op, TraceOpFromName(op_name));
        break;
      }
      case '!': {
        std::string op_name;
        if (!(ls >> op_name >> r.path >> r.length)) {
          return Status(ErrorCode::kCorrupt, "bad coda misc: " + line);
        }
        ls >> r.path2;  // optional
        PFS_ASSIGN_OR_RETURN(r.op, TraceOpFromName(op_name));
        break;
      }
      default:
        return Status(ErrorCode::kCorrupt, "bad coda tag: " + line);
    }
    records.push_back(std::move(r));
  }
  return records;
}

Result<std::vector<TraceRecord>> CodaTraceReader::ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status(ErrorCode::kIoError, "cannot read " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str());
}

void SynthesizeMissingTimes(std::vector<TraceRecord>* records) {
  // Each open client+path session chains the indices of its unknown-time
  // records through `next`, in record order; its close spaces them
  // equidistantly. Session keys view the records' paths, and the map's
  // nodes return to `nodes` when a session closes.
  constexpr size_t kNone = SIZE_MAX;
  struct Session {
    int64_t open_time = 0;
    size_t first = kNone;  // first and last unknown-time record
    size_t last = kNone;
    int64_t unknown = 0;
  };
  std::pmr::unsynchronized_pool_resource nodes;
  std::pmr::map<std::pair<uint32_t, std::string_view>, Session> open_sessions(&nodes);
  std::vector<size_t> next;  // sized at the first unknown-time record in a session
  for (size_t i = 0; i < records->size(); ++i) {
    TraceRecord& r = (*records)[i];
    const std::pair<uint32_t, std::string_view> key(r.client, r.path);
    switch (r.op) {
      case TraceOp::kOpen:
        open_sessions.insert_or_assign(key, Session{r.time_us});
        break;
      case TraceOp::kClose: {
        auto it = open_sessions.find(key);
        if (it != open_sessions.end()) {
          const Session& session = it->second;
          const int64_t span = r.time_us - session.open_time;
          int64_t k = 0;
          for (size_t u = session.first; u != kNone; u = next[u]) {
            ++k;
            (*records)[u].time_us =
                session.open_time + span * k / (session.unknown + 1);
          }
          open_sessions.erase(it);
        }
        break;
      }
      default:
        if (r.time_us < 0) {
          auto it = open_sessions.find(key);
          if (it != open_sessions.end()) {
            Session& session = it->second;
            if (next.empty()) {
              next.assign(records->size(), kNone);
            }
            if (session.first == kNone) {
              session.first = i;
            } else {
              next[session.last] = i;
            }
            session.last = i;
            ++session.unknown;
          } else {
            r.time_us = 0;  // no enclosing session: best effort
          }
        }
        break;
    }
  }
}

}  // namespace pfs
