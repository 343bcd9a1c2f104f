// Shared fixtures: the paper's running example (Figures 2-3) and small
// helpers used across test files.
#ifndef SKL_TESTS_TEST_UTIL_H_
#define SKL_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"
#include "src/speclabel/scheme.h"
#include "src/workflow/run.h"
#include "src/workflow/specification.h"
#include "src/workload/real_workflows.h"

namespace skl {
namespace testing_util {

/// The base seed of a randomized differential suite. SKL_TEST_SEED=<n> in
/// the environment overrides `default_seed` — a CI failure replays locally
/// with one export — and the chosen value is printed unconditionally, so
/// the seed is in the log even when the suite dies before its own
/// diagnostics run. Accepts decimal, 0x hex, or 0 octal spellings.
inline uint64_t TestSeed(const char* suite, uint64_t default_seed) {
  uint64_t seed = default_seed;
  const char* from = "default";
  if (const char* env = std::getenv("SKL_TEST_SEED")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 0);
    if (end != env && *end == '\0') {
      seed = parsed;
      from = "SKL_TEST_SEED";
    } else {
      std::fprintf(stderr, "[%s] ignoring unparseable SKL_TEST_SEED=\"%s\"\n",
                   suite, env);
    }
  }
  std::fprintf(stderr, "[%s] seed=%llu (%s; override with SKL_TEST_SEED)\n",
               suite, static_cast<unsigned long long>(seed), from);
  return seed;
}

/// Iteration multiplier for the randomized suites: 1 normally,
/// SKL_TEST_ITER_SCALE=<n> in CI's nightly long-fuzz leg. Values < 1 or
/// unparseable spellings fall back to 1.
inline uint64_t TestIterScale() {
  if (const char* env = std::getenv("SKL_TEST_ITER_SCALE")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 0);
    if (end != env && *end == '\0' && parsed >= 1) return parsed;
  }
  return 1;
}

/// The Figure 3 run of the running example: F1 executed twice; in one copy
/// L2... — precisely: fork F1 {b,c} twice (copies (b1,c1,b2,c2) with loop L1
/// twice, and (b3,c3) with L1 once), loop L2 twice (iteration 1 reads e1,
/// f1, g1; iteration 2 has fork F2 over f executed twice: f2, f3).
/// Vertex naming follows the paper: a1, b1..b3, c1..c3, d1, e1, e2, f1..f3,
/// g1, g2, h1.
struct RunningExample {
  Specification spec;
  Run run;
  std::unordered_map<std::string, VertexId> run_vertex;   // "b1" -> id
  std::unordered_map<std::string, VertexId> spec_vertex;  // "b" -> id

  VertexId rv(const std::string& name) const {
    auto it = run_vertex.find(name);
    SKL_CHECK_MSG(it != run_vertex.end(), name.c_str());
    return it->second;
  }
  VertexId sv(const std::string& name) const {
    auto it = spec_vertex.find(name);
    SKL_CHECK_MSG(it != spec_vertex.end(), name.c_str());
    return it->second;
  }
};

inline RunningExample MakeRunningExample() {
  auto spec_result = BuildRunningExampleSpec();
  SKL_CHECK_MSG(spec_result.ok(), spec_result.status().ToString().c_str());
  RunningExample ex{std::move(spec_result).value(), Run{}, {}, {}};
  for (const char* name : {"a", "b", "c", "h", "d", "e", "f", "g"}) {
    ex.spec_vertex[name] = ex.spec.VertexOf(name);
  }

  RunBuilder rb(ex.spec.shared_modules());
  auto add = [&](const std::string& instance, const std::string& module) {
    VertexId v = rb.AddVertexById(
        static_cast<ModuleId>(ex.spec.VertexOf(module)));
    ex.run_vertex[instance] = v;
  };
  // Figure 3's vertices.
  add("a1", "a");
  add("b1", "b");
  add("c1", "c");
  add("b2", "b");
  add("c2", "c");
  add("b3", "b");
  add("c3", "c");
  add("h1", "h");
  add("d1", "d");
  add("e1", "e");
  add("f1", "f");
  add("g1", "g");
  add("e2", "e");
  add("f2", "f");
  add("f3", "f");
  add("g2", "g");
  auto edge = [&](const std::string& u, const std::string& v) {
    rb.AddEdge(ex.run_vertex.at(u), ex.run_vertex.at(v));
  };
  // Fork copy 1 of F1 with loop L1 executed twice: a1->b1->c1->b2->c2->h1.
  edge("a1", "b1");
  edge("b1", "c1");
  edge("c1", "b2");  // serial loop edge
  edge("b2", "c2");
  edge("c2", "h1");
  // Fork copy 2 of F1 with L1 once: a1->b3->c3->h1.
  edge("a1", "b3");
  edge("b3", "c3");
  edge("c3", "h1");
  // Second branch: a1->d1->e1->f1->g1->e2->{f2,f3}->g2->h1.
  edge("a1", "d1");
  edge("d1", "e1");
  edge("e1", "f1");
  edge("f1", "g1");
  edge("g1", "e2");  // serial loop edge between L2 iterations
  edge("e2", "f2");
  edge("f2", "g2");
  edge("e2", "f3");
  edge("f3", "g2");
  edge("g2", "h1");
  auto run_result = std::move(rb).Build();
  SKL_CHECK_MSG(run_result.ok(), run_result.status().ToString().c_str());
  ex.run = std::move(run_result).value();
  return ex;
}

/// A tree-shaped specification for the interval scheme (which rejects spec
/// graphs with undirected cycles): a -> b -> c -> d with loop {b, c}.
inline Specification MakeTreeSpec() {
  SpecificationBuilder builder;
  VertexId a = builder.AddModule("a");
  VertexId b = builder.AddModule("b");
  VertexId c = builder.AddModule("c");
  VertexId d = builder.AddModule("d");
  builder.AddEdge(a, b).AddEdge(b, c).AddEdge(c, d);
  builder.DeclareLoop({b, c});
  auto spec = std::move(builder).Build();
  SKL_CHECK_MSG(spec.ok(), spec.status().ToString().c_str());
  return std::move(spec).value();
}

/// The spec a scheme kind is exercised on: the tree spec for the interval
/// scheme, the running example for every other scheme.
inline Specification MakeSpecFor(SpecSchemeKind kind) {
  return kind == SpecSchemeKind::kInterval ? MakeTreeSpec()
                                           : MakeRunningExample().spec;
}

}  // namespace testing_util
}  // namespace skl

#endif  // SKL_TESTS_TEST_UTIL_H_
