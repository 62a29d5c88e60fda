// Ablation: the paper's §3 third observation — "Clustering effect can be
// reduced by increasing population size considerably, but this increases
// the computational cost also." NSGA-II swept over population size at a
// fixed generation budget, reporting the clustering fraction, covered load
// span and wall-clock cost; an equal-evaluation SACGA row shows the paper's
// alternative.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/series.hpp"

int main() {
  using namespace anadex;
  std::cout.setf(std::ios::unitbuf);

  expt::print_banner(std::cout, "Ablation B",
                     "NSGA-II clustering vs population size (800 generations)");

  const problems::IntegratorProblem problem(problems::chosen_spec());
  Series series("clustering vs population size",
                {"population", "cluster_4to5", "load_span_pF", "front_area", "seconds"});

  constexpr int kSeeds = 2;  // average out single-run GA noise
  std::vector<double> clusters;
  std::vector<double> costs;
  for (std::size_t pop : {50u, 100u, 200u, 400u}) {
    double cluster = 0.0;
    double span = 0.0;
    double area = 0.0;
    double seconds = 0.0;
    for (int seed = 1; seed <= kSeeds; ++seed) {
      auto settings = bench::chosen_settings(expt::Algo::TPG, bench::kPaperBudget);
      settings.population = pop;
      settings.seed = static_cast<std::uint64_t>(seed);
      const auto outcome = expt::run(problem, settings);
      cluster += outcome.clustering_4to5 / kSeeds;
      span += outcome.load_span_pf / kSeeds;
      area += outcome.front_area / kSeeds;
      seconds += outcome.seconds / kSeeds;
    }
    series.add_row({static_cast<double>(pop), cluster, span, area, seconds});
    clusters.push_back(cluster);
    costs.push_back(seconds);
    std::cout << "  NSGA-II pop=" << pop << ": cluster=" << cluster << " span=" << span
              << "pF area=" << area << " (" << seconds << "s/run)\n";
  }

  // The paper's alternative at the cost of the SMALLEST population.
  const auto sacga =
      expt::run(problem, bench::chosen_settings(expt::Algo::SACGA, bench::kPaperBudget));
  std::cout << "  SACGA   pop=100: cluster=" << sacga.clustering_4to5
            << " span=" << sacga.load_span_pf << "pF area=" << sacga.front_area << " ("
            << sacga.seconds << "s)\n\n";

  series.write_table(std::cout);

  // The claim as two trends over the population sweep: the cluster fraction
  // falls and the cost rises at every step.
  const std::size_t cluster_rises = bench::trend_breaks(clusters, /*down=*/true);
  const std::size_t cost_falls = bench::trend_breaks(costs, /*down=*/false);
  const std::string steps = std::to_string(clusters.size() - 1);
  expt::print_paper_vs_measured(
      std::cout, "bigger populations reduce clustering but cost more (§3)",
      "qualitative claim",
      "cluster fraction " + std::to_string(clusters.front()) + " -> " +
          std::to_string(clusters.back()) + " (rose on " + std::to_string(cluster_rises) +
          "/" + steps + " steps), seconds " + std::to_string(costs.front()) + " -> " +
          std::to_string(costs.back()) + " (fell on " + std::to_string(cost_falls) + "/" +
          steps + " steps)" + bench::verdict(cluster_rises == 0 && cost_falls == 0));
  expt::print_paper_vs_measured(
      std::cout, "SACGA achieves the diversity without the population blow-up",
      "the paper's motivation for partitioned competition",
      "SACGA at pop 100 covers " + std::to_string(sacga.load_span_pf) + " pF");
  return 0;
}
