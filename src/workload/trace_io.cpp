#include "workload/trace_io.h"

#include <array>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "common/knobs.h"
#include "common/number_format.h"

namespace themis {
namespace {

constexpr char kHeader[] =
    "app_index,app_name,arrival,tuner,target_loss,num_tasks,gpus_per_task,"
    "total_work,total_iterations,loss_scale,loss_decay,loss_floor,model,"
    "max_span";
constexpr std::size_t kFields = 14;

/// Splits `line` at every comma, keeps the first kFields fields in `fields`
/// and returns how many the line has: one more than its commas, so a
/// trailing comma counts as an empty last field.
std::size_t SplitCsvLine(std::string_view line,
                         std::array<std::string_view, kFields>& fields) {
  for (std::size_t n = 0;; ++n) {
    const std::size_t comma = line.find(',');
    if (n < kFields) fields[n] = line.substr(0, comma);
    if (comma == std::string_view::npos) return n + 1;
    line.remove_prefix(comma + 1);
  }
}

[[noreturn]] void Fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("trace csv line " + std::to_string(line_no) + ": " +
                           what);
}

/// The whole of `field` (header column `name`) as a T. A floating-point
/// field must be finite: from_chars reads "nan" and "inf", which no trace
/// holds and which would slip past the arrival order and shape checks.
template <class T>
T Number(std::string_view field, const char* name, std::size_t line_no) {
  const std::optional<T> v = ParseNumber<T>(field);
  if constexpr (std::is_floating_point_v<T>) {
    if (v && !std::isfinite(*v))
      Fail(line_no, std::string(name) + ": expected a finite number, got \"" +
                        std::string(field) + "\"");
  }
  if (v) return *v;
  Fail(line_no, std::string(name) + ": expected " + KnobType<T>() +
                    ", got \"" + std::string(field) + "\"");
}

/// `parse(field)` for header column `name`, its error prefixed with the line
/// and the column.
template <class Parse>
auto Parsed(std::string_view field, const char* name, std::size_t line_no,
            Parse parse) {
  try {
    return parse(field);
  } catch (const std::exception& e) {
    Fail(line_no, std::string(name) + ": " + e.what());
  }
}

template <class T>
void AppendField(std::string& out, const T& value) {
  if constexpr (std::is_arithmetic_v<T>) AppendNumber(out, value);
  else out += value;
}

/// Appends each of `fields` followed by `end`.
template <class... Fields>
void AppendFields(std::string& out, char end, const Fields&... fields) {
  ((AppendField(out, fields), out += ','), ...);
  out.back() = end;
}

/// Appends the rows of `app` to `out`, which must be empty. The app's five
/// columns open every row, so they are formatted once and copied.
void AppendAppRows(std::string& out, const AppSpec& app, std::size_t index) {
  if (app.jobs.empty()) return;
  AppendFields(out, ',', index, app.name, app.arrival, ToString(app.tuner),
               app.target_loss);
  const std::size_t app_columns = out.size();
  for (const JobSpec& job : app.jobs) {
    if (&job != &app.jobs.front()) out.append(out, 0, app_columns);
    AppendFields(out, '\n', job.num_tasks, job.gpus_per_task, job.total_work,
                 job.total_iterations, job.loss.scale(), job.loss.decay(),
                 job.loss.floor(), job.model.name, ToString(job.max_span));
  }
}

}  // namespace

const char* ToString(TunerKind kind) {
  switch (kind) {
    case TunerKind::kNone: return "none";
    case TunerKind::kHyperBand: return "hyperband";
    case TunerKind::kHyperDrive: return "hyperdrive";
  }
  return "none";
}

TunerKind TunerKindFromString(std::string_view name) {
  if (name == "none") return TunerKind::kNone;
  if (name == "hyperband") return TunerKind::kHyperBand;
  if (name == "hyperdrive") return TunerKind::kHyperDrive;
  throw std::runtime_error("unknown tuner kind: " + std::string(name));
}

LocalityLevel LocalityLevelFromString(std::string_view name) {
  if (name == "slot") return LocalityLevel::kSlot;
  if (name == "machine") return LocalityLevel::kMachine;
  if (name == "rack") return LocalityLevel::kRack;
  if (name == "cross-rack") return LocalityLevel::kCrossRack;
  throw std::runtime_error("unknown locality level: " + std::string(name));
}

// ---------------------------------------------------------------------------
// Readers.

bool VectorTraceReader::Next(AppSpec& out) {
  if (next_ >= apps_.size()) return false;
  out = std::move(apps_[next_++]);
  return true;
}

StreamingCsvTraceReader::StreamingCsvTraceReader(const std::string& path)
    : owned_(std::make_unique<std::ifstream>(path)),
      in_(owned_.get()),
      require_sorted_(true),
      source_(path) {
  if (!*owned_)
    throw std::runtime_error("cannot open for reading: " + path);
  ReadHeader();
}

StreamingCsvTraceReader::StreamingCsvTraceReader(std::istream& in,
                                                 bool require_sorted)
    : in_(&in), require_sorted_(require_sorted), source_("<stream>") {
  ReadHeader();
}

StreamingCsvTraceReader::~StreamingCsvTraceReader() = default;

void StreamingCsvTraceReader::ReadHeader() {
  if (!std::getline(*in_, line_))
    throw std::runtime_error("trace csv: empty input (" + source_ + ")");
  ++line_no_;
  if (line_ != kHeader) Fail(line_no_, "unexpected header");
}

bool StreamingCsvTraceReader::Next(AppSpec& out) {
  if (done_) {
    if (have_current_) {
      out = std::move(current_);
      have_current_ = false;
      ++apps_read_;
      return true;
    }
    return false;
  }

  std::array<std::string_view, kFields> f;
  while (std::getline(*in_, line_)) {
    ++line_no_;
    if (line_.empty()) continue;
    const std::size_t fields = SplitCsvLine(line_, f);
    if (fields != kFields)
      Fail(line_no_, "expected " + std::to_string(kFields) + " fields, got " +
                         std::to_string(fields));
    try {
      const auto app_index = Number<long long>(f[0], "app_index", line_no_);
      const bool starts_app = app_index != current_index_;
      AppSpec next_app;
      if (starts_app) {
        if (app_index != current_index_ + 1)
          Fail(line_no_, "app_index must be contiguous (got " +
                             std::to_string(app_index) + " after " +
                             std::to_string(current_index_) + ")");
        next_app.name = f[1];
        next_app.arrival = Number<double>(f[2], "arrival", line_no_);
        next_app.tuner = Parsed(f[3], "tuner", line_no_, TunerKindFromString);
        next_app.target_loss = Number<double>(f[4], "target_loss", line_no_);
        if (require_sorted_ && current_index_ >= 0 &&
            next_app.arrival < last_arrival_) {
          Fail(line_no_,
               "streamed trace must be arrival-sorted: app " +
                   std::to_string(app_index) + " arrives at " +
                   std::string(f[2]) + " but app " +
                   std::to_string(current_index_) +
                   " arrived at " + std::to_string(last_arrival_) +
                   " (sort the CSV by arrival, or slurp it with "
                   "ReadTraceCsvFile)");
        }
      }
      JobSpec job;
      job.num_tasks = Number<int>(f[5], "num_tasks", line_no_);
      job.gpus_per_task = Number<int>(f[6], "gpus_per_task", line_no_);
      job.total_work = Number<double>(f[7], "total_work", line_no_);
      job.total_iterations = Number<double>(f[8], "total_iterations", line_no_);
      job.loss = LossCurve(Number<double>(f[9], "loss_scale", line_no_),
                           Number<double>(f[10], "loss_decay", line_no_),
                           Number<double>(f[11], "loss_floor", line_no_));
      job.model = ModelByName(f[12]);
      job.max_span =
          Parsed(f[13], "max_span", line_no_, LocalityLevelFromString);
      if (job.num_tasks <= 0 || job.gpus_per_task <= 0 || job.total_work <= 0.0)
        Fail(line_no_, "non-positive job shape");

      if (!starts_app) {
        current_.jobs.push_back(std::move(job));
        continue;
      }
      current_index_ = app_index;
      last_arrival_ = next_app.arrival;
      next_app.jobs.push_back(std::move(job));
      if (have_current_) {
        out = std::move(current_);
        current_ = std::move(next_app);
        ++apps_read_;
        return true;
      }
      current_ = std::move(next_app);
      have_current_ = true;
    } catch (const std::runtime_error&) {
      throw;
    } catch (const std::exception& e) {
      Fail(line_no_, e.what());
    }
  }

  done_ = true;
  if (have_current_) {
    out = std::move(current_);
    have_current_ = false;
    ++apps_read_;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Writers.

StreamingTraceWriter::StreamingTraceWriter(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path)),
      out_(owned_.get()),
      source_(path) {
  if (!*owned_) throw std::runtime_error("cannot open for writing: " + path);
  *out_ << kHeader << '\n';
}

StreamingTraceWriter::StreamingTraceWriter(std::ostream& out)
    : out_(&out), source_("<stream>") {
  *out_ << kHeader << '\n';
}

StreamingTraceWriter::~StreamingTraceWriter() {
  // Best effort on the owning path; Close() explicitly to surface errors.
  if (!closed_ && owned_) owned_->close();
}

void StreamingTraceWriter::Append(const AppSpec& app) {
  if (closed_)
    throw std::logic_error("StreamingTraceWriter: Append after Close");
  if (app.name.find_first_of(",\n\r") != std::string::npos)
    throw std::invalid_argument(
        "trace csv: app " + std::to_string(apps_written_) +
        " has a name with a comma or a line break, which the format cannot "
        "hold");
  // An app is its job rows: one without jobs would leave a gap in the
  // app indices, which the reader refuses.
  if (app.jobs.empty())
    throw std::invalid_argument("trace csv: app " +
                                std::to_string(apps_written_) +
                                " has no jobs, which the format cannot hold");
  rows_.clear();
  AppendAppRows(rows_, app, apps_written_);
  out_->write(rows_.data(), static_cast<std::streamsize>(rows_.size()));
  ++apps_written_;
  jobs_written_ += app.jobs.size();
}

void StreamingTraceWriter::Close() {
  if (closed_) return;
  closed_ = true;
  out_->flush();
  if (!*out_)
    throw std::runtime_error("trace csv: write failed (" + source_ + ")");
  if (owned_) owned_->close();
}

// ---------------------------------------------------------------------------
// Slurped forms, layered on the streaming ones (so output stays
// byte-identical between the two paths).

void WriteTraceCsv(std::ostream& out, const std::vector<AppSpec>& apps) {
  StreamingTraceWriter writer(out);
  for (const AppSpec& app : apps) writer.Append(app);
  writer.Close();
}

void WriteTraceCsvFile(const std::string& path,
                       const std::vector<AppSpec>& apps) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  WriteTraceCsv(out, apps);
}

std::vector<AppSpec> ReadTraceCsv(std::istream& in) {
  StreamingCsvTraceReader reader(in, /*require_sorted=*/false);
  std::vector<AppSpec> apps;
  AppSpec app;
  while (reader.Next(app)) apps.push_back(std::move(app));
  return apps;
}

std::vector<AppSpec> ReadTraceCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return ReadTraceCsv(in);
}

}  // namespace themis
