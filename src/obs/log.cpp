#include "obs/log.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>

#include "core/thread_annotations.hpp"

#include "obs/metrics.hpp"

namespace baco::obs {

namespace {

double
wall_seconds()
{
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::system_clock::now().time_since_epoch())
                   .count()) *
           1e-3;
}

std::uint64_t
steady_seconds()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Keep one-line JSON framing intact (same policy as the wire protocol). */
void
append_sanitized(std::string& out, const char* s)
{
    for (; *s; ++s) {
        char c = *s;
        if (c == '"')
            out += '\'';
        else if (c == '\n' || c == '\r')
            out += ' ';
        else if (c == '\\')
            out += '/';
        else
            out += c;
    }
}

}  // namespace

const char*
log_level_name(LogLevel level)
{
    switch (level) {
      case LogLevel::kDebug: return "debug";
      case LogLevel::kInfo: return "info";
      case LogLevel::kWarn: return "warn";
      case LogLevel::kError: return "error";
    }
    return "?";
}

bool
parse_log_level(const std::string& name, LogLevel& out)
{
    if (name == "debug")
        out = LogLevel::kDebug;
    else if (name == "info")
        out = LogLevel::kInfo;
    else if (name == "warn" || name == "warning")
        out = LogLevel::kWarn;
    else if (name == "error")
        out = LogLevel::kError;
    else
        return false;
    return true;
}

LogFields&
LogFields::str(const char* key, const std::string& value)
{
    out_ += ",\"";
    out_ += key;
    out_ += "\":\"";
    append_sanitized(out_, value.c_str());
    out_ += '"';
    return *this;
}

LogFields&
LogFields::num(const char* key, double value)
{
    char buf[64];
    if (std::isfinite(value))
        std::snprintf(buf, sizeof(buf), "%.6g", value);
    else
        std::snprintf(buf, sizeof(buf), "\"%s\"",
                      std::isnan(value) ? "nan"
                                        : (value > 0 ? "inf" : "-inf"));
    out_ += ",\"";
    out_ += key;
    out_ += "\":";
    out_ += buf;
    return *this;
}

LogFields&
LogFields::num(const char* key, std::int64_t value)
{
    out_ += ",\"";
    out_ += key;
    out_ += "\":";
    out_ += std::to_string(value);
    return *this;
}

LogFields&
LogFields::num(const char* key, std::uint64_t value)
{
    out_ += ",\"";
    out_ += key;
    out_ += "\":";
    out_ += std::to_string(value);
    return *this;
}

LogFields&
LogFields::num(const char* key, int value)
{
    return num(key, static_cast<std::int64_t>(value));
}

LogFields&
LogFields::flag(const char* key, bool value)
{
    out_ += ",\"";
    out_ += key;
    out_ += "\":";
    out_ += value ? "true" : "false";
    return *this;
}

struct EventLog::Impl {
  Mutex mutex;
  LogLevel min_level BACO_GUARDED_BY(mutex) = LogLevel::kWarn;
  /** nullptr = stderr (never closed). */
  std::FILE* file BACO_GUARDED_BY(mutex) = nullptr;
  /** Events per second below kError before the rest are dropped. */
  static constexpr int kRateLimit = 500;
  std::uint64_t window_start_s BACO_GUARDED_BY(mutex) = 0;
  int window_count BACO_GUARDED_BY(mutex) = 0;
  std::uint64_t dropped BACO_GUARDED_BY(mutex) = 0;
};

EventLog::EventLog() : impl_(new Impl()) {}

EventLog::~EventLog()
{
    close();
    delete impl_;
}

EventLog&
EventLog::global()
{
    static EventLog* log = new EventLog();  // leaked: usable during exit
    return *log;
}

void
EventLog::configure(LogLevel min_level, const std::string& path)
{
    MutexLock lock(impl_->mutex);
    if (impl_->file) {
        std::fclose(impl_->file);
        impl_->file = nullptr;
    }
    impl_->min_level = min_level;
    if (!path.empty() && path != "-")
        impl_->file = std::fopen(path.c_str(), "a");
}

bool
EventLog::enabled(LogLevel level) const
{
    MutexLock lock(impl_->mutex);
    return level >= impl_->min_level;
}

void
EventLog::write(LogLevel level, const char* component, const char* event,
                const LogFields& fields)
{
    std::string line;
    {
        MutexLock lock(impl_->mutex);
        if (level < impl_->min_level)
            return;
        // Per-second budget; errors always pass.
        if (level < LogLevel::kError) {
            std::uint64_t now_s = steady_seconds();
            if (now_s != impl_->window_start_s) {
                impl_->window_start_s = now_s;
                impl_->window_count = 0;
            }
            if (impl_->window_count >= Impl::kRateLimit) {
                ++impl_->dropped;
                MetricsRegistry::global()
                    .counter("obs.log.dropped_total")
                    .add(1);
                return;
            }
            ++impl_->window_count;
        }
        char head[96];
        std::snprintf(head, sizeof(head), "{\"ts\":%.3f,\"level\":\"%s\"",
                      wall_seconds(), log_level_name(level));
        line = head;
        line += ",\"component\":\"";
        append_sanitized(line, component);
        line += "\",\"event\":\"";
        append_sanitized(line, event);
        line += '"';
        line += fields.json();
        line += "}\n";
        std::FILE* out = impl_->file ? impl_->file : stderr;
        std::fputs(line.c_str(), out);
        std::fflush(out);
    }
}

std::uint64_t
EventLog::dropped() const
{
    MutexLock lock(impl_->mutex);
    return impl_->dropped;
}

void
EventLog::close()
{
    MutexLock lock(impl_->mutex);
    if (impl_->file) {
        std::fclose(impl_->file);
        impl_->file = nullptr;
    }
}

}  // namespace baco::obs
