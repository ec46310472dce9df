// Trace serialization: save generated workloads to CSV and load them back,
// so experiments can be archived, inspected, edited by hand, and replayed
// bit-identically — the workflow a real trace (like the paper's enterprise
// one) would follow.
//
// Format: one row per job, header included.
//   app_index,app_name,arrival,tuner,target_loss,
//   num_tasks,gpus_per_task,total_work,total_iterations,
//   loss_scale,loss_decay,loss_floor,model,max_span
// Every double is printf "%.17g" in the C locale (std::to_chars), whatever
// the process or stream locale, and reads back (std::from_chars) to the same
// bits; integers are plain decimal. Fields are not quoted, so an app name
// may not hold a comma or a line break: the writer refuses one. A row has
// exactly 14 fields; a trailing comma makes a 15th.
//
// Two ways to consume a trace:
//   - slurped: ReadTraceCsv / ReadTraceCsvFile materialize the whole
//     std::vector<AppSpec> (fine for tens of thousands of jobs);
//   - streamed: StreamingCsvTraceReader yields one AppSpec at a time from
//     disk, so a million-job trace replays without ever living in memory.
//     The streaming path requires arrival-sorted input (the simulator
//     injects arrivals as the stream advances) and fails with a pointed,
//     line-numbered error otherwise; the slurped path stays permissive.
// The reader holds one line and the app it is assembling. StreamingTraceWriter
// is the mirror image for producers: append apps one at a time, and nothing
// but the current app's rows is ever buffered (one write per app).
// WriteTraceCsv is implemented on top of it, so both paths emit
// byte-identical CSV.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "workload/job_spec.h"

namespace themis {

/// Pull-based source of apps in arrival order. `Next` fills `out` and
/// returns true, or returns false once the trace is exhausted (and then
/// keeps returning false).
class TraceReader {
 public:
  virtual ~TraceReader() = default;
  virtual bool Next(AppSpec& out) = 0;
};

/// TraceReader over an in-memory app vector (e.g. TraceGenerator output).
class VectorTraceReader : public TraceReader {
 public:
  explicit VectorTraceReader(std::vector<AppSpec> apps)
      : apps_(std::move(apps)) {}

  bool Next(AppSpec& out) override;

 private:
  std::vector<AppSpec> apps_;
  std::size_t next_ = 0;
};

/// Incremental CSV parser: holds one app under construction plus one line of
/// lookahead, never the whole trace. Validates the header eagerly (in the
/// constructor) and each row as it is read; errors carry the 1-based line
/// number. With `require_sorted` (the default, and always true for the
/// path constructor used by the simulator), out-of-order arrivals are a
/// hard error naming both offending values.
class StreamingCsvTraceReader : public TraceReader {
 public:
  /// Opens and owns the file; requires arrival-sorted input.
  explicit StreamingCsvTraceReader(const std::string& path);
  /// Reads from a caller-owned stream (kept alive by the caller).
  explicit StreamingCsvTraceReader(std::istream& in, bool require_sorted = true);
  ~StreamingCsvTraceReader() override;  // out-of-line: ifstream is incomplete here

  bool Next(AppSpec& out) override;

  std::size_t apps_read() const { return apps_read_; }
  std::size_t lines_read() const { return line_no_; }

 private:
  void ReadHeader();

  std::unique_ptr<std::ifstream> owned_;
  std::istream* in_;
  bool require_sorted_;
  std::string source_;  // for error messages ("path" or "<stream>")

  std::string line_;  // the line being parsed, reused
  std::size_t line_no_ = 0;
  long long current_index_ = -1;
  double last_arrival_ = 0.0;
  bool done_ = false;
  bool have_current_ = false;
  AppSpec current_;
  std::size_t apps_read_ = 0;
};

/// Append-only CSV emitter: writes the header up front and one row per job
/// as apps are appended, so trace_gen can emit million-job traces in
/// constant memory. Close() (or destruction, for the owning path form)
/// flushes and verifies the stream.
class StreamingTraceWriter {
 public:
  /// Creates/truncates and owns the file.
  explicit StreamingTraceWriter(const std::string& path);
  /// Writes to a caller-owned stream.
  explicit StreamingTraceWriter(std::ostream& out);
  ~StreamingTraceWriter();

  StreamingTraceWriter(const StreamingTraceWriter&) = delete;
  StreamingTraceWriter& operator=(const StreamingTraceWriter&) = delete;

  /// Throws std::invalid_argument, naming the app's index, when its name
  /// holds a comma or a line break or it has no jobs; nothing of that app
  /// is written.
  void Append(const AppSpec& app);
  /// Flush and (for the owning form) close; throws on write failure.
  /// Idempotent; Append after Close is an error.
  void Close();

  std::size_t apps_written() const { return apps_written_; }
  std::size_t jobs_written() const { return jobs_written_; }

 private:
  std::unique_ptr<std::ofstream> owned_;
  std::ostream* out_;
  std::string source_;
  std::string rows_;  // the app being written, reused
  std::size_t apps_written_ = 0;
  std::size_t jobs_written_ = 0;
  bool closed_ = false;
};

/// Serialize apps to CSV. Apps keep their order; jobs keep theirs.
void WriteTraceCsv(std::ostream& out, const std::vector<AppSpec>& apps);
void WriteTraceCsvFile(const std::string& path, const std::vector<AppSpec>& apps);

/// Parse a trace written by WriteTraceCsv. Throws std::runtime_error with a
/// line number on malformed input. Does not require sorted arrivals.
std::vector<AppSpec> ReadTraceCsv(std::istream& in);
std::vector<AppSpec> ReadTraceCsvFile(const std::string& path);

/// Round-trip helpers used by tests.
const char* ToString(TunerKind kind);
TunerKind TunerKindFromString(std::string_view name);
LocalityLevel LocalityLevelFromString(std::string_view name);

}  // namespace themis
