// Readers for the Linux /proc files the benchmark records: process
// memory from /proc/self/status and hypervisor steal from /proc/stat.
// Parsers take the file text so they can be tested on fixed strings.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace perfbench {

/// Whole contents of a (pseudo-)file; empty when it cannot be read.
std::string read_text_file(const char* path);

/// The kB value of a "Key:   123 kB" line in /proc/self/status text
/// (`key` without the colon, e.g. "VmRSS"); nullopt when absent or
/// malformed.
std::optional<long> status_kb(std::string_view status_text,
                              std::string_view key);

/// Steal time of the aggregate "cpu" line of /proc/stat text, in clock
/// ticks (USER_HZ); nullopt when the line or its 8th field is missing.
std::optional<std::uint64_t> steal_ticks(std::string_view proc_stat_text);

/// Current VmRSS / peak VmHWM of this process [kB]; -1 when unreadable.
long vm_rss_kb();
long vm_hwm_kb();

}  // namespace perfbench
