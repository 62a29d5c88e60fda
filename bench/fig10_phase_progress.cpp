// Figure 10 — "Progress of Pareto Front across various SACGA phases of
// MESACGA": the quality metric at the end of each of the 7 phases, for
// span = 50, 100 and 150. The paper: results improve monotonically across
// phases, and larger spans produce better final fronts.
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "common/ascii_plot.hpp"
#include "common/series.hpp"

int main() {
  using namespace anadex;
  std::cout.setf(std::ios::unitbuf);

  expt::print_banner(std::cout, "Figure 10",
                     "Front quality at the end of each MESACGA phase "
                     "(span = 50 / 100 / 150)");

  const problems::IntegratorProblem problem(problems::chosen_spec());
  Series series("front-area metric per phase",
                {"phase", "span50", "span100", "span150"});
  std::vector<std::vector<double>> columns;
  std::vector<PlotSeries> plots;
  double final_span50 = 0.0;
  double final_span150 = 0.0;

  const char glyphs[] = {'5', '1', '9'};
  int glyph_idx = 0;
  for (std::size_t span : {50u, 100u, 150u}) {
    auto settings = bench::chosen_settings(expt::Algo::MESACGA, 0);
    settings.span = bench::scaled(span);
    settings.generations = 0;  // span drives the budget here
    const auto outcome = expt::run(problem, settings);
    PlotSeries plot;
    plot.label = "span=" + std::to_string(bench::scaled(span));
    plot.glyph = glyphs[glyph_idx++];
    std::vector<double> column;
    for (const auto& phase : outcome.phases) {
      column.push_back(phase.front_area);
      plot.x.push_back(static_cast<double>(phase.phase));
      plot.y.push_back(phase.front_area);
    }
    columns.push_back(column);
    plots.push_back(std::move(plot));
    if (span == 50) final_span50 = column.back();
    if (span == 150) final_span150 = column.back();
    std::cout << "  span=" << bench::scaled(span) << ": final front_area "
              << column.back() << "\n";
  }

  for (std::size_t phase = 0; phase < columns[0].size(); ++phase) {
    series.add_row({static_cast<double>(phase + 1), columns[0][phase],
                    columns[1][phase], columns[2][phase]});
  }

  PlotOptions options;
  options.x_label = "Phases of SACGA";
  options.y_label = "front-area metric (0.1 mW*pF, lower better)";
  std::cout << render_scatter(plots, options);
  series.write_table(std::cout);

  // Phase-over-phase: count, per span, the phase steps where the metric rose.
  std::string rises;
  std::size_t total_rises = 0;
  for (std::size_t k = 0; k < columns.size(); ++k) {
    const std::size_t breaks = bench::trend_breaks(columns[k], /*down=*/true);
    total_rises += breaks;
    rises += (k == 0 ? "" : ", ") + plots[k].label + " " + std::to_string(breaks) + "/" +
             std::to_string(columns[k].size() - 1);
  }
  expt::print_paper_vs_measured(
      std::cout, "metric improves phase over phase",
      "monotone decrease across the 7 phases (all spans)",
      "phase steps where the metric rose: " + rises + bench::verdict(total_rises == 0));
  expt::print_paper_vs_measured(
      std::cout, "larger span is better (paper: results improve with span)",
      "span 150 best, span 50 worst",
      "span150 " + std::to_string(final_span150) + " vs span50 " +
          std::to_string(final_span50) + bench::verdict(final_span150 < final_span50));
  return 0;
}
