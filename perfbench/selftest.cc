// Negative self-tests of the benchmark's correctness checks: each check
// must pass a well-formed input and fire on every deliberately wrong
// one, including an input that would leave it nothing to compare.
// Exit 0 iff every check behaves; run.py runs this before each
// benchmark run, so a check that went blind stops the benchmark.

#include <cstdio>
#include <string>

#include "checks.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool fires, const std::string& reason, const char* what) {
  bool ok = fires ? !reason.empty() : reason.empty();
  std::fprintf(stderr, "%s %s%s%s\n", ok ? "ok  " : "FAIL", what,
               reason.empty() ? "" : ": ", reason.c_str());
  if (!ok) ++failures;
}

void ExactlyOnce() {
  std::map<std::string, std::vector<int64_t>> submitted = {
      {"a", {1, 3}}, {"b", {2}}};
  Sections good = {
      {"a/state", "papyrus-state\nclock 5\napplied 1 1 1\napplied 3 1 2\n"},
      {"b/state", "papyrus-state\napplied 2 1 1\n"}};
  QueueCounts counts{.done = 3};
  Expect(false, CheckExactlyOnce(counts, 3, submitted, good),
         "exactly-once accepts a complete ledger");
  Sections twice = good;
  twice["a/state"] += "applied 3 1 2\n";
  Expect(true, CheckExactlyOnce(counts, 3, submitted, twice),
         "exactly-once fires on a task committed twice");
  Sections missing = good;
  missing["b/state"] = "papyrus-state\n";
  Expect(true, CheckExactlyOnce(counts, 3, submitted, missing),
         "exactly-once fires on a lost task");
  Sections foreign = good;
  foreign["b/state"] += "applied 3 1 2\n";
  Expect(true, CheckExactlyOnce(counts, 3, submitted, foreign),
         "exactly-once fires on a task in the wrong session");
  Expect(true, CheckExactlyOnce({.done = 2}, 3, submitted, good),
         "exactly-once fires on a short done count");
  Expect(true, CheckExactlyOnce({.done = 3, .failed = 1}, 3, submitted, good),
         "exactly-once fires on a failed task");
  Expect(true, CheckExactlyOnce({.done = 0}, 0, {}, {}),
         "exactly-once fires when nothing was submitted");
}

void Recovery() {
  std::map<std::string, std::vector<int64_t>> lost = {{"a", {7}}};
  Expect(false, CheckRecovery(lost, "a", 7, true),
         "recovery accepts losing and recommitting the crashed task");
  Expect(true, CheckRecovery(lost, "a", 7, false),
         "recovery fires when the crashed task is not recommitted");
  Expect(true, CheckRecovery({}, "a", 7, true),
         "recovery fires when the crash lost nothing");
  Expect(true, CheckRecovery({{"a", {7}}, {"b", {3}}}, "a", 7, true),
         "recovery fires on another lost task");
  Expect(true, CheckRecovery({{"a", {5, 7}}}, "a", 7, true),
         "recovery fires on a lost task of the crashed session");
}

void SameSections() {
  Sections a = {{"s/db/0", "x"}, {"s/state", "y"}};
  Expect(false, CheckSameSections(a, a), "sections accept identical maps");
  Sections byte = a;
  byte["s/db/0"] = "X";
  Expect(true, CheckSameSections(a, byte), "sections fire on one byte");
  Sections fewer = {{"s/db/0", "x"}};
  Expect(true, CheckSameSections(a, fewer), "sections fire on a lost one");
  Expect(true, CheckSameSections(fewer, a), "sections fire on an extra one");
  Expect(true, CheckSameSections({}, {}), "sections fire on empty maps");
}

void Fairness() {
  std::map<std::string, int> tasks = {{"a", 2}, {"b", 2}, {"c", 1}};
  Expect(false, CheckFairness({"a", "b", "c", "a", "b"}, tasks),
         "fairness accepts round-robin");
  Expect(true, CheckFairness({"a", "b", "c", "b", "a"}, tasks),
         "fairness fires on a starved session");
  Expect(true, CheckFairness({"a", "b", "c", "a", "b", "c"}, tasks),
         "fairness fires on a claim of exhausted work");
  Expect(true, CheckFairness({"a"}, tasks),
         "fairness fires when no pair is compared");
}

void WarmRerun() {
  std::map<std::string, std::string> pairs = {{"w0", "c0"}};
  std::vector<TaskCost> costs = {{"c0", 6, 900}, {"w0", 0, 0}};
  Expect(false, CheckWarmCosts(costs, pairs),
         "warm costs accept a free warm pass");
  Expect(true, CheckWarmCosts({{"c0", 6, 900}, {"w0", 1, 0}}, pairs),
         "warm costs fire on a spawned tool");
  Expect(true, CheckWarmCosts({{"c0", 6, 900}, {"w0", 0, 7}}, pairs),
         "warm costs fire on added virtual time");
  Expect(true, CheckWarmCosts({{"c0", 0, 0}, {"w0", 0, 0}}, pairs),
         "warm costs fire when the cold pass ran nothing either");
  Expect(true, CheckWarmCosts({{"c0", 6, 900}}, pairs),
         "warm costs fire when no warm task ran");
  std::map<std::string, Outputs> outputs = {
      {"c0", {{"s0.layout@1", "h1"}}}, {"w0", {{"s0.layout@1", "h1"}}}};
  Expect(false, CheckWarmOutputs(pairs, outputs),
         "warm outputs accept equal bytes");
  std::map<std::string, Outputs> differ = outputs;
  differ["w0"]["s0.layout@1"] = "h2";
  Expect(true, CheckWarmOutputs(pairs, differ),
         "warm outputs fire on different bytes");
  std::map<std::string, Outputs> extra = outputs;
  extra["w0"]["s1.layout@1"] = "h3";
  Expect(true, CheckWarmOutputs(pairs, extra),
         "warm outputs fire on an output the cold session lacks");
  Expect(true, CheckWarmOutputs(pairs, {{"c0", {}}, {"w0", {}}}),
         "warm outputs fire when no output is compared");
  Expect(true, CheckWarmOutputs({}, outputs),
         "warm outputs fire when no pair is compared");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::ExactlyOnce();
  perfbench::Recovery();
  perfbench::SameSections();
  perfbench::Fairness();
  perfbench::WarmRerun();
  std::fprintf(stderr, "selftest: %d failure(s)\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
