#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <iterator>

#include "core/thread_annotations.hpp"

namespace baco::obs {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_origin_us{0};

std::uint64_t
now_us()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Bounded per-thread ring of trace events. Threads register their
 * buffer in a global list on first use; when the thread exits, the
 * buffer's events are retired into a bounded global store and the
 * buffer itself is freed, so collect() after a ThreadPool is joined
 * and destroyed still sees its spans without the buffer list growing
 * with every short-lived thread.
 */
struct ThreadBuffer {
  Mutex mutex;  ///< record vs collect/clear; uncontended in practice
  /** Ring storage, up to kBufferCapacity. */
  std::vector<TraceEvent> events BACO_GUARDED_BY(mutex);
  std::size_t next BACO_GUARDED_BY(mutex) = 0;  ///< ring write position
  bool wrapped BACO_GUARDED_BY(mutex) = false;
  std::uint64_t thread_id = 0;  ///< set once at registration, then read-only

  void push(const TraceEvent& e)
  {
      MutexLock lock(mutex);
      if (events.size() < Trace::kBufferCapacity) {
          events.push_back(e);
          next = events.size() % Trace::kBufferCapacity;
      } else {
          events[next] = e;  // overwrite the oldest event
          next = (next + 1) % Trace::kBufferCapacity;
          wrapped = true;
      }
  }
};

struct BufferList {
  Mutex mutex;
  /** Owned; live until their thread exits (then retired + freed). */
  std::vector<ThreadBuffer*> buffers BACO_GUARDED_BY(mutex);
};

BufferList&
buffer_list()
{
    static BufferList* list = new BufferList();  // leaked: survives exit
    return *list;
}

/**
 * Events from exited threads, oldest first. Bounded: when a retirement
 * would exceed the cap the oldest retired events are dropped (same
 * overwrite-oldest policy as the rings themselves).
 */
struct RetiredEvents {
  Mutex mutex;
  std::vector<TraceEvent> events BACO_GUARDED_BY(mutex);
};

constexpr std::size_t kRetiredCapacity = 64 * Trace::kBufferCapacity;

RetiredEvents&
retired_events()
{
    static RetiredEvents* r = new RetiredEvents();  // leaked: survives exit
    return *r;
}

/** Spans imported from other processes, grouped by track. */
struct RemoteStore {
  Mutex mutex;
  std::vector<std::pair<std::string, std::vector<RemoteSpan>>> tracks
      BACO_GUARDED_BY(mutex);
};

RemoteStore&
remote_store()
{
    static RemoteStore* r = new RemoteStore();  // leaked: survives exit
    return *r;
}

Mutex g_run_mutex;
std::string g_run_id BACO_GUARDED_BY(g_run_mutex);

/** Oldest-first snapshot of a ring (caller holds no lock on b). */
std::vector<TraceEvent>
unwind_ring(ThreadBuffer& b)
{
    MutexLock lock(b.mutex);
    std::vector<TraceEvent> out;
    out.reserve(b.events.size());
    if (b.wrapped) {
        for (std::size_t i = 0; i < b.events.size(); ++i)
            out.push_back(b.events[(b.next + i) % b.events.size()]);
    } else {
        out.insert(out.end(), b.events.begin(), b.events.end());
    }
    return out;
}

/** Move an exiting thread's events into the retired store; free the ring. */
void
retire_buffer(ThreadBuffer* b)
{
    {
        BufferList& list = buffer_list();
        MutexLock lock(list.mutex);
        for (std::size_t i = 0; i < list.buffers.size(); ++i) {
            if (list.buffers[i] == b) {
                list.buffers.erase(list.buffers.begin() + i);
                break;
            }
        }
    }
    // The buffer is unreachable now: only its (exiting) owner thread and
    // the list referenced it.
    std::vector<TraceEvent> evs = unwind_ring(*b);
    if (!evs.empty()) {
        RetiredEvents& r = retired_events();
        MutexLock lock(r.mutex);
        r.events.insert(r.events.end(), evs.begin(), evs.end());
        if (r.events.size() > kRetiredCapacity) {
            r.events.erase(r.events.begin(),
                           r.events.begin() +
                               static_cast<std::ptrdiff_t>(r.events.size() -
                                                           kRetiredCapacity));
        }
    }
    delete b;
}

thread_local ThreadBuffer* t_buf = nullptr;

/** Thread-exit hook: constructed alongside the buffer, retires it. */
struct BufferRetirer {
  ~BufferRetirer()
  {
      if (t_buf) {
          retire_buffer(t_buf);
          t_buf = nullptr;
      }
  }
};
thread_local BufferRetirer t_retirer;

ThreadBuffer&
local_buffer()
{
    if (!t_buf) {
        auto* b = new ThreadBuffer();
        static std::atomic<std::uint64_t> next_tid{1};
        b->thread_id = next_tid.fetch_add(1);
        BufferList& list = buffer_list();
        {
            MutexLock lock(list.mutex);
            list.buffers.push_back(b);
        }
        (void)&t_retirer;  // odr-use: arm the thread-exit retirement hook
        t_buf = b;
    }
    return *t_buf;
}

std::string
json_escape(const char* s)
{
    std::string out;
    for (; *s; ++s) {
        if (*s == '"' || *s == '\\')
            out += '\\';
        out += *s;
    }
    return out;
}

}  // namespace

void
Trace::enable()
{
    g_origin_us.store(static_cast<std::int64_t>(now_us()),
                      std::memory_order_relaxed);
    {
        MutexLock lock(g_run_mutex);
        if (g_run_id.empty())
            g_run_id = "run-" + std::to_string(now_us());
    }
    g_enabled.store(true, std::memory_order_release);
}

void
Trace::disable()
{
    g_enabled.store(false, std::memory_order_release);
}

bool
Trace::enabled()
{
    return g_enabled.load(std::memory_order_acquire);
}

std::string
Trace::run_id()
{
    MutexLock lock(g_run_mutex);
    return g_run_id;
}

void
Trace::set_run_id(const std::string& id)
{
    MutexLock lock(g_run_mutex);
    g_run_id = id;
}

void
Trace::clear()
{
    {
        BufferList& list = buffer_list();
        MutexLock lock(list.mutex);
        for (ThreadBuffer* b : list.buffers) {
            MutexLock block(b->mutex);
            b->events.clear();
            b->next = 0;
            b->wrapped = false;
        }
    }
    {
        RetiredEvents& r = retired_events();
        MutexLock lock(r.mutex);
        r.events.clear();
    }
    {
        RemoteStore& r = remote_store();
        MutexLock lock(r.mutex);
        r.tracks.clear();
    }
}

std::vector<TraceEvent>
Trace::collect()
{
    std::vector<TraceEvent> out;
    {
        RetiredEvents& r = retired_events();
        MutexLock lock(r.mutex);
        out = r.events;
    }
    BufferList& list = buffer_list();
    MutexLock lock(list.mutex);
    for (ThreadBuffer* b : list.buffers) {
        MutexLock block(b->mutex);
        if (b->wrapped) {
            // Oldest-first: the ring wrapped, so start at the write head.
            for (std::size_t i = 0; i < b->events.size(); ++i) {
                out.push_back(
                    b->events[(b->next + i) % b->events.size()]);
            }
        } else {
            out.insert(out.end(), b->events.begin(), b->events.end());
        }
    }
    return out;
}

void
Trace::add_remote(const std::string& track, std::vector<RemoteSpan> spans)
{
    if (spans.empty())
        return;
    RemoteStore& r = remote_store();
    MutexLock lock(r.mutex);
    for (auto& t : r.tracks) {
        if (t.first == track) {
            t.second.insert(t.second.end(),
                            std::make_move_iterator(spans.begin()),
                            std::make_move_iterator(spans.end()));
            return;
        }
    }
    r.tracks.emplace_back(track, std::move(spans));
}

std::vector<std::pair<std::string, std::vector<RemoteSpan>>>
Trace::remote_tracks()
{
    RemoteStore& r = remote_store();
    MutexLock lock(r.mutex);
    return r.tracks;
}

bool
Trace::export_chrome(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::vector<TraceEvent> events = collect();
    auto remote = remote_tracks();
    std::string run = run_id();
    std::fputs("{\"traceEvents\": [\n", f);
    bool first = true;
    auto sep = [&]() -> const char* {
        if (first) {
            first = false;
            return "";
        }
        return ",\n";
    };
    // Track metadata: the server is pid 1; each remote track (worker
    // process) gets its own pid so the viewer renders distinct tracks.
    std::fprintf(f,
                 "%s{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"args\": {\"name\": \"server\"}}",
                 sep());
    if (!run.empty()) {
        std::fprintf(f,
                     "%s{\"name\": \"trace_run\", \"ph\": \"M\", \"pid\": 1, "
                     "\"args\": {\"name\": \"%s\"}}",
                     sep(), json_escape(run.c_str()).c_str());
    }
    for (const TraceEvent& e : events) {
        std::fprintf(
            f,
            "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"pid\": 1, \"tid\": %llu, \"ts\": %llu, \"dur\": %llu}",
            sep(), json_escape(e.name).c_str(),
            json_escape(e.category).c_str(),
            static_cast<unsigned long long>(e.thread_id),
            static_cast<unsigned long long>(e.start_us),
            static_cast<unsigned long long>(e.duration_us));
    }
    for (std::size_t t = 0; t < remote.size(); ++t) {
        unsigned long long pid = static_cast<unsigned long long>(t + 2);
        std::fprintf(f,
                     "%s{\"name\": \"process_name\", \"ph\": \"M\", "
                     "\"pid\": %llu, \"args\": {\"name\": \"%s\"}}",
                     sep(), pid,
                     json_escape(remote[t].first.c_str()).c_str());
        for (const RemoteSpan& s : remote[t].second) {
            std::fprintf(
                f,
                "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                "\"pid\": %llu, \"tid\": %llu, \"ts\": %llu, \"dur\": %llu"
                ", \"args\": {\"run\": \"%s\"}}",
                sep(), json_escape(s.name.c_str()).c_str(),
                json_escape(s.category.c_str()).c_str(), pid,
                static_cast<unsigned long long>(s.thread_id),
                static_cast<unsigned long long>(s.start_us),
                static_cast<unsigned long long>(s.duration_us),
                json_escape(s.run.c_str()).c_str());
        }
    }
    std::fputs("\n]}\n", f);
    bool ok = std::fclose(f) == 0;
    return ok;
}

#if !defined(BACO_OBS_TRACE_OFF)

Span::Span(const char* name, const char* category)
    : name_(name), category_(category)
{
    if (name_ && g_enabled.load(std::memory_order_relaxed)) {
        active_ = true;
        start_us_ = now_us();
    }
}

Span::~Span()
{
    if (!active_ || !g_enabled.load(std::memory_order_relaxed))
        return;
    std::uint64_t end = now_us();
    std::int64_t origin = g_origin_us.load(std::memory_order_relaxed);
    TraceEvent e;
    e.name = name_;
    e.category = category_;
    ThreadBuffer& buf = local_buffer();
    e.thread_id = buf.thread_id;
    e.start_us = start_us_ >= static_cast<std::uint64_t>(origin)
                     ? start_us_ - static_cast<std::uint64_t>(origin)
                     : 0;
    e.duration_us = end - start_us_;
    buf.push(e);
}

#endif  // !BACO_OBS_TRACE_OFF

ScopedTimer::ScopedTimer(Histogram& hist, const char* span_name,
                         const char* category)
    : hist_(hist),
      start_ns_(now_ns())
#if !defined(BACO_OBS_TRACE_OFF)
      ,
      span_(span_name, category)
#endif
{
#if defined(BACO_OBS_TRACE_OFF)
    (void)span_name;
    (void)category;
#endif
}

double
ScopedTimer::elapsed() const
{
    return static_cast<double>(now_ns() - start_ns_) * 1e-9;
}

ScopedTimer::~ScopedTimer()
{
    hist_.record(elapsed());
}

}  // namespace baco::obs
