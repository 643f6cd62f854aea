#include "sim/monitor_plan.h"

#include <cctype>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_set>

#include "common/strings.h"

namespace dcv {
namespace {

constexpr std::string_view kHeader = "# dcv-monitor-plan v1";

bool HasWhitespace(const std::string& s) {
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      return true;
    }
  }
  return false;
}

}  // namespace

Status MonitorPlan::Validate() const {
  if (site_names.size() != bounds.size()) {
    return InvalidArgumentError("site_names and bounds are misaligned");
  }
  // A hash set, not a pairwise scan: a plan file is outside input, and a
  // million-site plan must not take quadratic time to reject or accept.
  std::unordered_set<std::string_view> seen;
  seen.reserve(site_names.size());
  for (size_t i = 0; i < site_names.size(); ++i) {
    if (site_names[i].empty() || HasWhitespace(site_names[i])) {
      return InvalidArgumentError("site name '" + site_names[i] +
                                  "' must be nonempty without whitespace");
    }
    if (!seen.insert(site_names[i]).second) {
      return InvalidArgumentError("duplicate site name '" + site_names[i] +
                                  "'");
    }
    if (bounds[i].lo < 0) {
      return InvalidArgumentError("negative lower bound for site '" +
                                  site_names[i] + "'");
    }
  }
  return OkStatus();
}

std::string MonitorPlan::Serialize() const {
  std::string out(kHeader);
  out += "\n";
  if (!constraint_text.empty()) {
    out += "constraint: " + constraint_text + "\n";
  }
  out += "threshold: " + std::to_string(global_threshold) + "\n";
  if (!solver_name.empty()) {
    out += "solver: " + solver_name + "\n";
  }
  for (size_t i = 0; i < site_names.size(); ++i) {
    out += "site: " + site_names[i] + " " + std::to_string(bounds[i].lo) +
           " " + std::to_string(bounds[i].hi) + "\n";
  }
  return out;
}

Result<MonitorPlan> MonitorPlan::Parse(const std::string& text) {
  MonitorPlan plan;
  std::istringstream in(text);
  std::string line;
  bool saw_header = false;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty()) {
      continue;
    }
    if (!saw_header) {
      if (stripped != kHeader) {
        return InvalidArgumentError(
            "not a dcv monitor plan (missing version header)");
      }
      saw_header = true;
      continue;
    }
    if (stripped.front() == '#') {
      continue;  // Comment.
    }
    size_t colon = stripped.find(':');
    if (colon == std::string_view::npos) {
      return InvalidArgumentError("malformed plan line " +
                                  std::to_string(line_no));
    }
    std::string key(StripWhitespace(stripped.substr(0, colon)));
    std::string value(StripWhitespace(stripped.substr(colon + 1)));
    if (key == "constraint") {
      plan.constraint_text = value;
    } else if (key == "threshold") {
      DCV_ASSIGN_OR_RETURN(plan.global_threshold, ParseInt64(value));
    } else if (key == "solver") {
      plan.solver_name = value;
    } else if (key == "site") {
      std::vector<std::string> parts;
      for (const std::string& p : StrSplit(value, ' ')) {
        if (!p.empty()) {
          parts.push_back(p);
        }
      }
      if (parts.size() != 3) {
        return InvalidArgumentError("site line " + std::to_string(line_no) +
                                    " must be: site: <name> <lo> <hi>");
      }
      DCV_ASSIGN_OR_RETURN(int64_t lo, ParseInt64(parts[1]));
      DCV_ASSIGN_OR_RETURN(int64_t hi, ParseInt64(parts[2]));
      plan.site_names.push_back(parts[0]);
      plan.bounds.push_back(SiteBounds{lo, hi});
    } else {
      return InvalidArgumentError("unknown plan key '" + key + "' on line " +
                                  std::to_string(line_no));
    }
  }
  if (!saw_header) {
    return InvalidArgumentError("empty monitor plan");
  }
  DCV_RETURN_IF_ERROR(plan.Validate());
  return plan;
}

Status MonitorPlan::WriteToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return InternalError("cannot open file for writing: " + path);
  }
  out << Serialize();
  if (!out) {
    return InternalError("error writing file: " + path);
  }
  return OkStatus();
}

Result<MonitorPlan> MonitorPlan::ReadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return Parse(buf.str());
}

}  // namespace dcv
