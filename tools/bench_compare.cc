// bench_compare — CI perf-regression gate over micro_overhead --json output.
//
// Diffs a current Google-Benchmark JSON report against the newest checked-in
// baseline (the highest-numbered bench/BENCH_PR<n>.json) and fails when any
// *gated* counter (kGates) slowed past 1 + kThreshold times its baseline:
//
//   bench_compare $(ls -v bench/BENCH_PR*.json | tail -n 1) now.json
//                 --report compare.txt
//
// A second mode renders the per-PR baseline series as a markdown trajectory
// table (the perf dashboard the ROADMAP asks for; CI uploads it as an
// artifact):
//
//   bench_compare --history $(ls -v bench/BENCH_PR*.json) now.json
//                 --report bench_history.md
//
// A gated benchmark missing from the current report is itself a failure
// (deleting a counter must not silently pass the gate). Exit codes:
//   0 = all gated counters within threshold
//   1 = regression (or gated counter missing)
//   2 = usage / IO / malformed report
//
// Perf noise note: CI runners are noisy and differ from the host a baseline
// was captured on, which is why the threshold is wide — it catches
// "accidentally made the broker 2x slower" classes of regression (a revert
// of the timer wheel, the estimator epoch cache or the incremental refresh),
// not single-digit drift. The full comparison table is written to --report
// for the uploaded artifact.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "jsonio/json.h"

namespace {

// Name substrings whose slowdown fails the gate: every hot path whose
// overhead the repo claims stays negligible. The baseline must anchor each
// one (see the vacuous-gate refusal in main), so a counter joins this list
// together with the first baseline that captures it.
constexpr const char* kGates[] = {
    "BM_EventScheduleFire",          "BM_EventScheduleCancel",
    "BM_BrokerDecisionWarmEpoch",    "BM_AdmissionDecisionSnapshot",
    "BM_ObsAdmissionUntraced",       "BM_ObsAdmissionTraced",
    "BM_EndToEndRunTraced",          "BM_ChaosScheduleParseExpand",
    "BM_RetryPathKillHeavy",         "BM_TenantAdmissionDecision",
    "BM_TenantConsolidationRun",     "BM_BrokerDecisionColdEpoch",
    "BM_ControlSyncRefresh1Modules", "BM_ControlSyncRefresh4Modules",
    "BM_ControlSyncRefresh16Modules",
};

// Maximum tolerated slowdown of a gated counter: 1.5 = fail past 2.5x the
// baseline, headroom for capture-host vs CI-runner drift.
constexpr double kThreshold = 1.5;

// --history: flag a monotone creep, each step within kThreshold, past +25%
// in total.
constexpr double kDriftThreshold = 0.25;

struct BenchRow {
  double cpu_time_ns = 0.0;
};

double UnitToNs(const std::string& unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  throw pard::CheckError("unknown time_unit \"" + unit + "\"");
}

std::string ReadFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  PARD_CHECK_MSG(f != nullptr, "cannot open " + path);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  return text;
}

// name -> normalized cpu_time in ns, per-iteration rows only.
std::map<std::string, BenchRow> LoadReport(const std::string& path) {
  const pard::JsonValue doc = pard::ParseJson(ReadFile(path));
  const pard::JsonValue* benchmarks = doc.Find("benchmarks");
  PARD_CHECK_MSG(benchmarks != nullptr && benchmarks->IsArray(),
                 path + " has no \"benchmarks\" array (is this --json output?)");
  std::map<std::string, BenchRow> rows;
  for (const pard::JsonValue& b : benchmarks->AsArray()) {
    if (const pard::JsonValue* run_type = b.Find("run_type");
        run_type != nullptr && run_type->AsString() != "iteration") {
      continue;  // Skip mean/median/stddev aggregate rows.
    }
    BenchRow row;
    row.cpu_time_ns = b.At("cpu_time").AsDouble() * UnitToNs(b.At("time_unit").AsString());
    rows[b.At("name").AsString()] = row;
  }
  PARD_CHECK_MSG(!rows.empty(), path + " contains no benchmark rows");
  return rows;
}

bool IsGated(const std::string& name) {
  for (const char* gate : kGates) {
    if (name.find(gate) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// "bench/BENCH_PR4.json" -> "BENCH_PR4".
std::string FileLabel(const std::string& path) {
  std::string label = path;
  if (const std::size_t slash = label.find_last_of("/\\"); slash != std::string::npos) {
    label = label.substr(slash + 1);
  }
  if (label.size() > 5 && label.substr(label.size() - 5) == ".json") {
    label = label.substr(0, label.size() - 5);
  }
  return label;
}

// --history: renders the baseline series as a markdown trajectory table.
// Rows are the union of benchmark names; the final column is the
// newest/oldest ratio (blank when either end is missing). Exit 0 on
// success, 2 on IO/parse problems — there is no pass/fail judgement here,
// the gate mode owns that.
//
// Drift detection: the per-PR gate only sees one step, so a counter can
// creep +20% every PR forever without tripping the 2.5x gate. The
// history view flags exactly that shape — a run of 3+ consecutive reports
// where every step slows down but stays under the per-step gate
// (kThreshold), and the cumulative slowdown exceeds kDriftThreshold —
// with a "DRIFT:" line after the table. Informational only (exit stays 0):
// a human decides whether the trend is intentional, but CI logs make it
// impossible to miss.
std::string RenderHistoryHtml(const std::vector<std::map<std::string, BenchRow>>& reports,
                              const std::vector<std::string>& labels);

int RenderHistory(const std::vector<std::string>& paths, const std::string& report_path,
                  const std::string& html_path) {
  std::vector<std::map<std::string, BenchRow>> reports;
  std::vector<std::string> labels;
  try {
    for (const std::string& path : paths) {
      reports.push_back(LoadReport(path));
      labels.push_back(FileLabel(path));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }
  std::map<std::string, bool> names;
  for (const auto& report : reports) {
    for (const auto& [name, row] : report) {
      (void)row;
      names[name] = true;
    }
  }
  // Each report column after the first is followed by a per-counter delta
  // column (Δ% vs the previous report), so a step change is readable in the
  // artifact without mental division; the final column keeps the
  // newest/oldest summary ratio.
  std::string table = "# Perf trajectory (cpu time per iteration, ns)\n\n| benchmark |";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      table += " Δ% |";
    }
    table += " " + labels[i] + " |";
  }
  table += " " + labels.back() + "/" + labels.front() + " |\n|---|";
  for (std::size_t i = 0; i < 2 * labels.size() - 1; ++i) {
    table += "---:|";
  }
  table += "---:|\n";
  for (const auto& [name, present] : names) {
    (void)present;
    table += "| " + name + " |";
    const BenchRow* first = nullptr;
    const BenchRow* last = nullptr;
    const BenchRow* prev = nullptr;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const auto it = reports[i].find(name);
      if (it == reports[i].end()) {
        if (i > 0) {
          table += " - |";  // Delta column.
        }
        table += " - |";
        prev = nullptr;  // A gap breaks the adjacent-delta chain.
        continue;
      }
      if (i > 0) {
        if (prev != nullptr && prev->cpu_time_ns > 0.0) {
          const double delta =
              100.0 * (it->second.cpu_time_ns / prev->cpu_time_ns - 1.0);
          table += pard::StrFormat(" %+.1f%% |", delta);
        } else {
          table += " - |";
        }
      }
      table += pard::StrFormat(" %.1f |", it->second.cpu_time_ns);
      prev = &it->second;
      if (first == nullptr) {
        first = &it->second;
      }
      if (i + 1 == reports.size()) {
        last = &it->second;
      }
    }
    if (first != nullptr && last != nullptr && first->cpu_time_ns > 0.0 &&
        reports.front().count(name) != 0) {
      table += pard::StrFormat(" %.3fx |\n", last->cpu_time_ns / first->cpu_time_ns);
    } else {
      table += " - |\n";
    }
  }
  // Monotone sub-gate creep across the series.
  std::string drift;
  for (const auto& [name, present] : names) {
    (void)present;
    // Longest run of consecutive reports containing this benchmark; a gap
    // (renamed/added counter) resets the run rather than comparing across it.
    std::vector<double> run;
    std::size_t run_start = 0;
    const auto flag_run = [&](const std::vector<double>& series, std::size_t start) {
      if (series.size() < 3 || series.front() <= 0.0) {
        return;
      }
      for (std::size_t i = 1; i < series.size(); ++i) {
        const double step = series[i] / series[i - 1];
        if (step < 1.0 || step > 1.0 + kThreshold) {
          return;  // Not a monotone creep, or a step the gate would catch.
        }
      }
      const double total = series.back() / series.front();
      if (total > 1.0 + kDriftThreshold) {
        drift += pard::StrFormat("DRIFT: %s +%.0f%% over %zu reports (%s..%s, each step under "
                                 "+%.0f%%)\n",
                                 name.c_str(), 100.0 * (total - 1.0), series.size(),
                                 labels[start].c_str(),
                                 labels[start + series.size() - 1].c_str(),
                                 100.0 * kThreshold);
      }
    };
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const auto it = reports[i].find(name);
      if (it == reports[i].end()) {
        flag_run(run, run_start);
        run.clear();
        continue;
      }
      if (run.empty()) {
        run_start = i;
      }
      run.push_back(it->second.cpu_time_ns);
    }
    flag_run(run, run_start);
  }
  if (!drift.empty()) {
    table += "\n" + drift;
  }
  std::printf("%s", table.c_str());
  if (!report_path.empty()) {
    FILE* out = std::fopen(report_path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
      return 2;
    }
    std::fwrite(table.data(), 1, table.size(), out);
    std::fclose(out);
  }
  if (!html_path.empty()) {
    const std::string html = RenderHistoryHtml(reports, labels);
    FILE* out = std::fopen(html_path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", html_path.c_str());
      return 2;
    }
    std::fwrite(html.data(), 1, html.size(), out);
    std::fclose(out);
  }
  return 0;
}

std::string HtmlEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

// --history --html: a standalone HTML/inline-SVG chart of the same series
// the markdown table tabulates. Each benchmark is one polyline of its cpu
// time normalized to its first present report (log2 y-axis, so a 2x
// speedup and a 2x regression are symmetric around the 1.0x gridline); the
// legend carries the final ratio. Self-contained by construction — no
// scripts, no external assets — so CI can upload the file as-is.
std::string RenderHistoryHtml(const std::vector<std::map<std::string, BenchRow>>& reports,
                              const std::vector<std::string>& labels) {
  // Series: benchmark -> per-report normalized ratio (NaN = missing).
  std::map<std::string, bool> names;
  for (const auto& report : reports) {
    for (const auto& [name, row] : report) {
      (void)row;
      names[name] = true;
    }
  }
  struct Series {
    std::string name;
    std::vector<double> ratio;  // log2(value / first present value)
    double final_ratio = 1.0;
  };
  std::vector<Series> series;
  double lo = 0.0;
  double hi = 0.0;
  for (const auto& [name, present] : names) {
    (void)present;
    Series s;
    s.name = name;
    double first = 0.0;
    double last = 0.0;
    for (const auto& report : reports) {
      const auto it = report.find(name);
      if (it == report.end() || it->second.cpu_time_ns <= 0.0) {
        s.ratio.push_back(std::nan(""));
        continue;
      }
      if (first <= 0.0) {
        first = it->second.cpu_time_ns;
      }
      last = it->second.cpu_time_ns;
      const double r = std::log2(it->second.cpu_time_ns / first);
      s.ratio.push_back(r);
      lo = std::min(lo, r);
      hi = std::max(hi, r);
    }
    if (first > 0.0) {
      s.final_ratio = last / first;
      series.push_back(std::move(s));
    }
  }
  lo -= 0.2;
  hi += 0.2;

  // Layout: fixed plot box, legend below. Colors cycle a 12-hue palette.
  const double kW = 960.0, kH = 420.0, kL = 70.0, kR = 30.0, kT = 30.0, kB = 50.0;
  const double plot_w = kW - kL - kR;
  const double plot_h = kH - kT - kB;
  const std::size_t n = reports.size();
  const auto x_at = [&](std::size_t i) {
    return kL + (n > 1 ? plot_w * static_cast<double>(i) / static_cast<double>(n - 1)
                       : plot_w / 2.0);
  };
  const auto y_at = [&](double r) { return kT + plot_h * (hi - r) / (hi - lo); };
  static const char* kPalette[] = {"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
                                   "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
                                   "#bcbd22", "#17becf", "#aec7e8", "#ffbb78"};
  const std::size_t kPaletteSize = sizeof(kPalette) / sizeof(kPalette[0]);

  std::string svg = pard::StrFormat(
      "<svg viewBox=\"0 0 %.0f %.0f\" xmlns=\"http://www.w3.org/2000/svg\" "
      "font-family=\"sans-serif\" font-size=\"12\">\n",
      kW, kH);
  // Horizontal gridlines at power-of-two ratios inside [lo, hi].
  for (int p = static_cast<int>(std::floor(lo)); p <= static_cast<int>(std::ceil(hi)); ++p) {
    const double r = static_cast<double>(p);
    if (r < lo || r > hi) {
      continue;
    }
    const double y = y_at(r);
    svg += pard::StrFormat(
        "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"%s\" "
        "stroke-width=\"1\"/>\n",
        kL, y, kW - kR, y, p == 0 ? "#999" : "#ddd");
    svg += pard::StrFormat(
        "<text x=\"%.1f\" y=\"%.1f\" text-anchor=\"end\" fill=\"#555\">%gx</text>\n",
        kL - 8.0, y + 4.0, std::exp2(r));
  }
  // X labels (report names).
  for (std::size_t i = 0; i < n; ++i) {
    svg += pard::StrFormat(
        "<text x=\"%.1f\" y=\"%.1f\" text-anchor=\"middle\" fill=\"#555\">%s</text>\n",
        x_at(i), kH - kB + 20.0, HtmlEscape(labels[i]).c_str());
  }
  // One polyline per benchmark (gaps break the line into segments).
  std::string legend = "<table style=\"border-collapse:collapse\">\n";
  for (std::size_t si = 0; si < series.size(); ++si) {
    const Series& s = series[si];
    const char* color = kPalette[si % kPaletteSize];
    std::string points;
    for (std::size_t i = 0; i < s.ratio.size(); ++i) {
      if (std::isnan(s.ratio[i])) {
        if (!points.empty()) {
          svg += "<polyline fill=\"none\" stroke=\"" + std::string(color) +
                 "\" stroke-width=\"1.5\" points=\"" + points + "\"/>\n";
          points.clear();
        }
        continue;
      }
      points += pard::StrFormat("%.1f,%.1f ", x_at(i), y_at(s.ratio[i]));
      svg += pard::StrFormat(
          "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"2.5\" fill=\"%s\"/>\n", x_at(i),
          y_at(s.ratio[i]), color);
    }
    if (!points.empty()) {
      svg += "<polyline fill=\"none\" stroke=\"" + std::string(color) +
             "\" stroke-width=\"1.5\" points=\"" + points + "\"/>\n";
    }
    legend += pard::StrFormat(
        "<tr><td style=\"padding:2px 8px\"><span style=\"display:inline-block;width:12px;"
        "height:12px;background:%s\"></span></td><td style=\"padding:2px 8px\"><code>%s</code>"
        "</td><td style=\"padding:2px 8px;text-align:right\">%.3fx</td></tr>\n",
        color, HtmlEscape(s.name).c_str(), s.final_ratio);
  }
  legend += "</table>\n";
  svg += "</svg>\n";

  std::string html =
      "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
      "<title>Perf trajectory</title>\n</head>\n<body style=\"font-family:sans-serif;"
      "max-width:1000px;margin:2em auto\">\n"
      "<h1>Perf trajectory</h1>\n"
      "<p>Per-iteration cpu time of every benchmark across the checked-in baseline\n"
      "series, normalized to the benchmark's first appearance (log<sub>2</sub> scale:\n"
      "below the 1x line is faster, above is slower). Final column of the legend is\n"
      "newest/first. The markdown table artifact carries the raw numbers.</p>\n" +
      svg + "<h2>Legend (final ratio)</h2>\n" + legend + "</body>\n</html>\n";
  return html;
}

}  // namespace

int main(int argc, char** argv) {
  pard::FlagSet flags;
  flags.AddString("report", "", "also write the comparison table to this file");
  flags.AddBool("history", false,
                "render the given reports (oldest first, e.g. the bench/BENCH_PR*.json "
                "series) as a markdown trajectory table instead of gating");
  flags.AddString("html", "",
                  "--history: also write a standalone HTML/SVG chart of the series "
                  "(normalized per-benchmark polylines) to this file");
  try {
    flags.Parse(argc - 1, argv + 1);
  } catch (const pard::CheckError& e) {
    std::fprintf(stderr, "%s\n%s", e.what(),
                 flags.Usage("bench_compare <baseline.json> <current.json>").c_str());
    return 2;
  }
  if (flags.GetBool("history")) {
    if (flags.HelpRequested() || flags.positional().empty()) {
      std::printf("%s", flags.Usage("bench_compare --history <oldest.json> ... <newest.json>")
                            .c_str());
      return flags.HelpRequested() ? 0 : 2;
    }
    return RenderHistory(flags.positional(), flags.GetString("report"),
                         flags.GetString("html"));
  }
  if (flags.HelpRequested() || flags.positional().size() != 2) {
    std::printf("%s", flags.Usage("bench_compare <baseline.json> <current.json>").c_str());
    return flags.HelpRequested() ? 0 : 2;
  }

  std::map<std::string, BenchRow> baseline;
  std::map<std::string, BenchRow> current;
  try {
    baseline = LoadReport(flags.positional()[0]);
    current = LoadReport(flags.positional()[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }

  // Every gate must anchor to at least one usable baseline row — a baseline
  // captured from a truncated run (or with a zero timing) would otherwise
  // silently stop gating the very counter the gate exists for.
  for (const char* gate : kGates) {
    bool anchored = false;
    for (const auto& [name, row] : baseline) {
      if (name.find(gate) != std::string::npos && row.cpu_time_ns > 0.0) {
        anchored = true;
        break;
      }
    }
    if (!anchored) {
      std::fprintf(stderr,
                   "bench_compare: gate \"%s\" matches no baseline benchmark with a "
                   "positive cpu_time in %s — refusing to run a vacuous gate\n",
                   gate, flags.positional()[0].c_str());
      return 2;
    }
  }

  std::string table = pard::StrFormat("%-40s %14s %14s %8s  %s\n", "benchmark",
                                      "baseline(ns)", "current(ns)", "ratio", "verdict");
  std::vector<std::string> failures;
  int gated_seen = 0;
  for (const auto& [name, base_row] : baseline) {
    const bool gated = IsGated(name);
    const auto it = current.find(name);
    if (it == current.end()) {
      if (gated) {
        failures.push_back(name + " missing from current report");
        table += pard::StrFormat("%-40s %14.1f %14s %8s  GATED MISSING\n", name.c_str(),
                                 base_row.cpu_time_ns, "-", "-");
      }
      continue;
    }
    const double ratio = base_row.cpu_time_ns > 0.0
                             ? it->second.cpu_time_ns / base_row.cpu_time_ns
                             : 0.0;
    const bool regressed = gated && ratio > 1.0 + kThreshold;
    if (gated) {
      ++gated_seen;
    }
    if (regressed) {
      failures.push_back(pard::StrFormat("%s slowed %.2fx (limit %.2fx)", name.c_str(), ratio,
                                         1.0 + kThreshold));
    }
    table += pard::StrFormat("%-40s %14.1f %14.1f %8.3f  %s\n", name.c_str(),
                             base_row.cpu_time_ns, it->second.cpu_time_ns, ratio,
                             regressed  ? "REGRESSED"
                             : gated    ? "ok (gated)"
                                        : "ok");
  }

  std::string summary;
  if (failures.empty()) {
    summary = pard::StrFormat("PASS: %d gated counters within +%.0f%% of baseline\n",
                              gated_seen, 100.0 * kThreshold);
  } else {
    summary = pard::StrFormat("FAIL: %zu gated regression(s) beyond +%.0f%%:\n",
                              failures.size(), 100.0 * kThreshold);
    for (const std::string& failure : failures) {
      summary += "  - " + failure + "\n";
    }
  }
  std::printf("%s%s", table.c_str(), summary.c_str());
  if (!flags.GetString("report").empty()) {
    FILE* out = std::fopen(flags.GetString("report").c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flags.GetString("report").c_str());
      return 2;
    }
    std::fwrite(table.data(), 1, table.size(), out);
    std::fwrite(summary.data(), 1, summary.size(), out);
    std::fclose(out);
  }
  return failures.empty() ? 0 : 1;
}
