#ifndef BACO_OBS_LOG_HPP_
#define BACO_OBS_LOG_HPP_

/**
 * @file
 * Leveled, rate-limited structured event log.
 *
 * Every event is one flat JSON object on one line:
 *
 *   {"ts":1723111845.201,"level":"warn","component":"coord",
 *    "event":"worker_dead","worker":1,"reason":"heartbeat"}
 *
 * ts/level/component/event are always present; everything after them
 * comes from the caller-built LogFields. The sink defaults to stderr at
 * level warn (library code stays quiet in tests but deaths and errors
 * surface); tools reconfigure it from --log-file/--log-level.
 *
 * Rate limiting is a per-second token budget shared by all events below
 * kError: when the budget is exhausted events are counted in dropped()
 * (and the obs.log.dropped_total counter) instead of written, so a
 * pathological hot loop cannot flood the sink. Errors always write.
 */

#include <cstdint>
#include <string>

namespace baco::obs {

enum class LogLevel {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
};

/** Wire name ("debug", "info", "warn", "error"). */
const char* log_level_name(LogLevel level);

/** Parse a level name; returns false (and leaves out alone) on junk. */
bool parse_log_level(const std::string& name, LogLevel& out);

/**
 * Builder for the event-specific JSON fields. Chainable; the result is
 * a comma-led fragment spliced verbatim after the "event" field.
 */
class LogFields {
 public:
  LogFields& str(const char* key, const std::string& value);
  LogFields& num(const char* key, double value);
  LogFields& num(const char* key, std::int64_t value);
  LogFields& num(const char* key, std::uint64_t value);
  LogFields& num(const char* key, int value);
  LogFields& flag(const char* key, bool value);

  const std::string& json() const { return out_; }

 private:
  std::string out_;
};

/** Process-wide JSONL event log. */
class EventLog {
 public:
  static EventLog& global();

  /**
   * Point the log at `path` ("" or "-" = stderr) and set the minimum
   * level. Replaces any previous sink (the old file is closed).
   */
  void configure(LogLevel min_level, const std::string& path = "");

  bool enabled(LogLevel level) const;

  /** Emit one event line (no-op below the configured level). */
  void write(LogLevel level, const char* component, const char* event,
             const LogFields& fields = LogFields());

  /** Events suppressed by the rate limiter so far. */
  std::uint64_t dropped() const;

  /** Flush and close a file sink (reverts to stderr). */
  void close();

 private:
  EventLog();
  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  struct Impl;
  Impl* impl_;
};

/** Convenience wrappers used at the instrumentation points. */
inline void
log_debug(const char* component, const char* event,
          const LogFields& fields = LogFields())
{
    EventLog::global().write(LogLevel::kDebug, component, event, fields);
}

inline void
log_info(const char* component, const char* event,
         const LogFields& fields = LogFields())
{
    EventLog::global().write(LogLevel::kInfo, component, event, fields);
}

inline void
log_warn(const char* component, const char* event,
         const LogFields& fields = LogFields())
{
    EventLog::global().write(LogLevel::kWarn, component, event, fields);
}

inline void
log_error(const char* component, const char* event,
          const LogFields& fields = LogFields())
{
    EventLog::global().write(LogLevel::kError, component, event, fields);
}

}  // namespace baco::obs

#endif  // BACO_OBS_LOG_HPP_
