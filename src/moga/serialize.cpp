#include "moga/serialize.hpp"

#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "common/textio.hpp"

namespace anadex::moga {

namespace {
constexpr const char* kHeader = "anadex-population v1";
constexpr const char* kHeaderV2 = "anadex-population v2";

std::vector<double> read_values(std::istream& is, const char* keyword, std::size_t count) {
  std::string line;
  ANADEX_REQUIRE(static_cast<bool>(std::getline(is, line)),
                 std::string("truncated record: expected '") + keyword + "' line");
  std::istringstream ls(line);
  std::string tag;
  ls >> tag;
  ANADEX_REQUIRE(tag == keyword,
                 "expected '" + std::string(keyword) + "', found '" + tag + "'");
  std::vector<double> values(count);
  for (std::size_t i = 0; i < count; ++i) {
    ANADEX_REQUIRE(static_cast<bool>(ls >> values[i]),
                   std::string("non-numeric or missing value in '") + keyword + "'");
  }
  return values;
}
}  // namespace

void save_population(std::ostream& os, const Population& population) {
  os << kHeader << '\n' << std::setprecision(17);
  for (const auto& ind : population) {
    os << "individual " << ind.genes.size() << ' ' << ind.eval.objectives.size() << ' '
       << ind.eval.violations.size() << '\n';
    os << "genes";
    for (double g : ind.genes) os << ' ' << g;
    os << "\nobjectives";
    for (double f : ind.eval.objectives) os << ' ' << f;
    os << "\nviolations";
    for (double v : ind.eval.violations) os << ' ' << v;
    os << '\n';
  }
}

Population load_population(std::istream& is) {
  std::string line;
  ANADEX_REQUIRE(static_cast<bool>(std::getline(is, line)) && line == kHeader,
                 "missing or wrong anadex-population header");
  Population population;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    std::size_t n_genes = 0;
    std::size_t n_objs = 0;
    std::size_t n_viol = 0;
    ls >> tag >> n_genes >> n_objs >> n_viol;
    ANADEX_REQUIRE(tag == "individual" && !ls.fail(),
                   "expected 'individual <genes> <objectives> <violations>'");
    Individual ind;
    ind.genes = read_values(is, "genes", n_genes);
    ind.eval.objectives = read_values(is, "objectives", n_objs);
    ind.eval.violations = read_values(is, "violations", n_viol);
    population.push_back(std::move(ind));
  }
  return population;
}

namespace {

std::vector<double> read_exact_values(textio::LineReader& reader, const char* keyword,
                                      std::size_t count) {
  const auto parts = reader.record(keyword, count);
  ANADEX_REQUIRE(parts.size() == count + 1,
                 "'" + std::string(keyword) + "' holds the wrong number of values");
  std::vector<double> values(count);
  for (std::size_t i = 0; i < count; ++i) values[i] = textio::parse_double(parts[i + 1]);
  return values;
}

}  // namespace

void save_population_exact(std::ostream& os, const Population& population) {
  os << kHeaderV2 << ' ' << population.size() << '\n';
  for (const auto& ind : population) {
    os << "individual " << ind.genes.size() << ' ' << ind.eval.objectives.size() << ' '
       << ind.eval.violations.size() << ' ' << ind.rank << ' ' << textio::exact(ind.crowding)
       << '\n';
    os << "genes";
    for (double g : ind.genes) os << ' ' << textio::exact(g);
    os << "\nobjectives";
    for (double f : ind.eval.objectives) os << ' ' << textio::exact(f);
    os << "\nviolations";
    for (double v : ind.eval.violations) os << ' ' << textio::exact(v);
    os << '\n';
  }
}

Population load_population_exact(std::istream& is) {
  textio::LineReader reader(is);
  const auto header = reader.tokens("population v2 header");
  ANADEX_REQUIRE(header.size() == 3 && header[0] + " " + header[1] == kHeaderV2,
                 "missing or wrong anadex-population v2 header");
  const std::size_t count = textio::parse_u64(header[2]);

  Population population;
  population.reserve(count);
  for (std::size_t n = 0; n < count; ++n) {
    const auto head = reader.record("individual", 5);
    Individual ind;
    const std::size_t n_genes = textio::parse_u64(head[1]);
    const std::size_t n_objs = textio::parse_u64(head[2]);
    const std::size_t n_viol = textio::parse_u64(head[3]);
    ind.rank = textio::parse_int(head[4]);
    ind.crowding = textio::parse_double(head[5]);
    ind.genes = read_exact_values(reader, "genes", n_genes);
    ind.eval.objectives = read_exact_values(reader, "objectives", n_objs);
    ind.eval.violations = read_exact_values(reader, "violations", n_viol);
    population.push_back(std::move(ind));
  }
  return population;
}

}  // namespace anadex::moga
