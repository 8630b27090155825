#include "procfs.h"

#include <charconv>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

std::string_view trim_left(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  return s;
}

/// Parse one unsigned decimal field at the start of `s` (after blanks);
/// advances `s` past it.
std::optional<std::uint64_t> take_u64(std::string_view& s) {
  s = trim_left(s);
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr == s.data()) return std::nullopt;
  s.remove_prefix(static_cast<std::size_t>(ptr - s.data()));
  return v;
}

}  // namespace

std::string read_text_file(const char* path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::optional<long> status_kb(std::string_view status_text,
                              std::string_view key) {
  std::size_t pos = 0;
  while (pos < status_text.size()) {
    std::size_t eol = status_text.find('\n', pos);
    if (eol == std::string_view::npos) eol = status_text.size();
    std::string_view line = status_text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.size() <= key.size() || line.substr(0, key.size()) != key ||
        line[key.size()] != ':') {
      continue;
    }
    line.remove_prefix(key.size() + 1);
    const auto v = take_u64(line);
    if (!v) return std::nullopt;
    if (trim_left(line) != "kB") return std::nullopt;
    return static_cast<long>(*v);
  }
  return std::nullopt;
}

std::optional<std::uint64_t> steal_ticks(std::string_view proc_stat_text) {
  // Aggregate line: "cpu  user nice system idle iowait irq softirq steal ..."
  if (proc_stat_text.substr(0, 4) != "cpu ") return std::nullopt;
  std::string_view line =
      proc_stat_text.substr(4, proc_stat_text.find('\n') - 4);
  std::optional<std::uint64_t> field;
  for (int i = 0; i < 8; ++i) {
    field = take_u64(line);
    if (!field) return std::nullopt;
  }
  return field;
}

long vm_rss_kb() {
  return status_kb(read_text_file("/proc/self/status"), "VmRSS").value_or(-1);
}

long vm_hwm_kb() {
  return status_kb(read_text_file("/proc/self/status"), "VmHWM").value_or(-1);
}

}  // namespace perfbench
