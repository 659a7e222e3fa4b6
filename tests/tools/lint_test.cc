/**
 * @file
 * dagger_lint end-to-end tests: stage the fixture files (one offender
 * per rule plus suppression cases, see tests/tools/fixtures/README.md)
 * into a temporary src/ tree, run the real binary, and assert exact
 * rule hits via --json.
 *
 * DAGGER_LINT_BIN and DAGGER_LINT_FIXTURES are injected by CMake.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <sys/wait.h>

namespace {

namespace fs = std::filesystem;

struct RunResult
{
    int exit_code = -1;
    std::string out;
};

/** Run a command, capturing stdout and the exit code. */
RunResult
run(const std::string &cmd)
{
    RunResult r;
    FILE *p = ::popen((cmd + " 2>/dev/null").c_str(), "r");
    if (!p)
        return r;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        r.out.append(buf, n);
    const int status = ::pclose(p);
    if (WIFEXITED(status))
        r.exit_code = WEXITSTATUS(status);
    return r;
}

std::size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++count;
    return count;
}

std::size_t
ruleHits(const std::string &json, const std::string &rule)
{
    return countOccurrences(json, "\"rule\": \"" + rule + "\"");
}

/**
 * Stages fixtures into <temp>/src/ with real .cc names so the linter
 * walks them like simulator sources.
 */
class LintTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _root = fs::path(::testing::TempDir()) /
            ("dagger_lint_" +
             std::to_string(static_cast<long>(::getpid())));
        _src = _root / "src";
        fs::create_directories(_src);
        for (const auto &entry : fs::directory_iterator(
                 fs::path(DAGGER_LINT_FIXTURES))) {
            const std::string name = entry.path().filename().string();
            const std::string suffix = ".cc.in";
            if (name.size() <= suffix.size() ||
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) != 0)
                continue;
            fs::copy_file(
                entry.path(),
                _src / name.substr(0, name.size() - std::string(".in").size()),
                fs::copy_options::overwrite_existing);
        }
    }

    void TearDown() override { fs::remove_all(_root); }

    std::string
    lint(const std::string &args) const
    {
        return std::string(DAGGER_LINT_BIN) + " " + args;
    }

    fs::path _root;
    fs::path _src;
};

TEST_F(LintTest, ListRulesNamesAllSeven)
{
    const RunResult r = run(lint("--list-rules"));
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(countOccurrences(r.out, "\n"), 7u) << r.out;
    for (const char *rule :
         {"no-wallclock", "seeded-rng-only", "no-unordered-iteration-order",
          "no-raw-new-in-sim", "event-handler-noexcept",
          "no-payload-memcpy", "shared-mutable-static-in-sim"})
        EXPECT_NE(r.out.find(rule), std::string::npos) << rule;
}

TEST_F(LintTest, FixtureTreeProducesExactRuleHits)
{
    const RunResult r = run(lint("--json " + _root.string()));
    EXPECT_EQ(r.exit_code, 1); // findings present
    // 3 from wallclock.cc + 1 from bench_wallclock.cc + 2 from
    // suppress_edges.cc.
    EXPECT_EQ(ruleHits(r.out, "no-wallclock"), 6u);
    EXPECT_EQ(ruleHits(r.out, "seeded-rng-only"), 2u);
    EXPECT_EQ(ruleHits(r.out, "no-unordered-iteration-order"), 1u);
    EXPECT_EQ(ruleHits(r.out, "no-raw-new-in-sim"), 1u);
    EXPECT_EQ(ruleHits(r.out, "event-handler-noexcept"), 1u);
    EXPECT_EQ(ruleHits(r.out, "no-payload-memcpy"), 2u);
    EXPECT_EQ(ruleHits(r.out, "shared-mutable-static-in-sim"), 2u);
    // 3 from suppressed.cc + 1 each from bench_wallclock.cc,
    // payload_memcpy.cc, shared_static.cc + 3 from suppress_edges.cc.
    EXPECT_NE(r.out.find("\"suppressed\": 9"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("\"ok\": false"), std::string::npos);
}

TEST_F(LintTest, FindingsCarryFileAndLine)
{
    const RunResult r = run(lint("--json " + _root.string()));
    // The raw-new offender sits at a known line of its fixture.
    EXPECT_NE(r.out.find("raw_new.cc\", \"line\": 8"), std::string::npos)
        << r.out;
}

TEST_F(LintTest, SuppressionFormsAllApply)
{
    const RunResult r =
        run(lint("--json " + (_src / "suppressed.cc").string()));
    EXPECT_EQ(r.exit_code, 0) << r.out;
    EXPECT_NE(r.out.find("\"findings\": [],"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("\"suppressed\": 3"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("\"ok\": true"), std::string::npos);
}

TEST_F(LintTest, BenchWallclockOnlyLegalThroughHarness)
{
    // Perf benches report events/sec, which tempts a direct
    // steady_clock read.  Prove the no-wallclock rule fires on bench/
    // code exactly as on src/ code: host timing in a bench is only
    // legal through bench/harness.hh's audited WallTimer allows.
    const fs::path bench = _root / "bench";
    fs::create_directories(bench);
    fs::copy_file(fs::path(DAGGER_LINT_FIXTURES) / "bench_wallclock.cc.in",
                  bench / "perf_sim_throughput.cc",
                  fs::copy_options::overwrite_existing);
    const RunResult r = run(lint("--json " + bench.string()));
    EXPECT_EQ(r.exit_code, 1) << r.out; // the direct read is a finding
    EXPECT_EQ(ruleHits(r.out, "no-wallclock"), 1u) << r.out;
    // The harness-style allow on the second read still suppresses.
    EXPECT_NE(r.out.find("\"suppressed\": 1"), std::string::npos) << r.out;
}

TEST_F(LintTest, PayloadMemcpyRuleExemptsProtoDir)
{
    // src/proto/ is where PayloadBuf's counted copies live; the same
    // offending file that fires 2 findings under src/ must be clean
    // when staged under src/proto/.
    const fs::path proto = _src / "proto";
    fs::create_directories(proto);
    fs::copy_file(fs::path(DAGGER_LINT_FIXTURES) / "payload_memcpy.cc.in",
                  proto / "payload_impl.cc",
                  fs::copy_options::overwrite_existing);
    const RunResult r = run(lint("--json --rule no-payload-memcpy " +
                                 (proto / "payload_impl.cc").string()));
    EXPECT_EQ(r.exit_code, 0) << r.out;
    EXPECT_NE(r.out.find("\"ok\": true"), std::string::npos) << r.out;
    // Not even suppressions: the rule never ran on the file.
    EXPECT_NE(r.out.find("\"suppressed\": 0"), std::string::npos) << r.out;
}

TEST_F(LintTest, PayloadMemcpyRuleFlagsOnlyPayloadBytes)
{
    const RunResult r = run(lint("--json --rule no-payload-memcpy " +
                                 (_src / "payload_memcpy.cc").string()));
    EXPECT_EQ(r.exit_code, 1) << r.out;
    EXPECT_EQ(ruleHits(r.out, "no-payload-memcpy"), 2u) << r.out;
    // The allow-comment form suppresses; the POD field build (line 27)
    // never fires at all.
    EXPECT_NE(r.out.find("\"suppressed\": 1"), std::string::npos) << r.out;
    EXPECT_EQ(r.out.find("\"line\": 27"), std::string::npos) << r.out;
}

TEST_F(LintTest, CleanFileExitsZero)
{
    const RunResult r = run(lint("--json " + (_src / "clean.cc").string()));
    EXPECT_EQ(r.exit_code, 0) << r.out;
    EXPECT_NE(r.out.find("\"ok\": true"), std::string::npos);
}

TEST_F(LintTest, RuleFilterRestrictsFindings)
{
    const RunResult r =
        run(lint("--json --rule no-wallclock " + _root.string()));
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_EQ(ruleHits(r.out, "no-wallclock"), 6u);
    EXPECT_EQ(ruleHits(r.out, "seeded-rng-only"), 0u);
    EXPECT_EQ(ruleHits(r.out, "no-raw-new-in-sim"), 0u);
}

TEST_F(LintTest, SharedMutableStaticExactHits)
{
    const RunResult r =
        run(lint("--json --rule shared-mutable-static-in-sim " +
                 (_src / "shared_static.cc").string()));
    EXPECT_EQ(r.exit_code, 1) << r.out;
    EXPECT_EQ(ruleHits(r.out, "shared-mutable-static-in-sim"), 2u) << r.out;
    // The namespace-scope mutable (9) and the function-local static
    // (18); const/constexpr/thread_local declarations stay clean and
    // the audited cell suppresses.
    EXPECT_NE(r.out.find("\"line\": 9"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("\"line\": 18"), std::string::npos) << r.out;
    EXPECT_EQ(r.out.find("kLimit"), std::string::npos) << r.out;
    EXPECT_EQ(r.out.find("kWindow"), std::string::npos) << r.out;
    EXPECT_EQ(r.out.find("t_localHits"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("\"suppressed\": 1"), std::string::npos) << r.out;
}

TEST_F(LintTest, SuppressionEdgeCasesBlockCommentsAndCrlf)
{
    const RunResult r =
        run(lint("--json " + (_src / "suppress_edges.cc").string()));
    EXPECT_EQ(r.exit_code, 1) << r.out;
    // Honored: trailing single-line /* */ block, comment-only
    // single-line block covering the next line, and the same form on
    // CRLF-terminated lines.
    EXPECT_NE(r.out.find("\"suppressed\": 3"), std::string::npos) << r.out;
    // Inert: a tag inside a multi-line block-comment interior and a
    // tag inside a string literal — those two time() reads stand.
    EXPECT_EQ(ruleHits(r.out, "no-wallclock"), 2u) << r.out;
    EXPECT_NE(r.out.find("\"line\": 24"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("\"line\": 30"), std::string::npos) << r.out;
}

TEST_F(LintTest, JobsOutputIsByteIdenticalAndOrdered)
{
    // --jobs N parallelizes the scan but merges per-file results in
    // input order: byte-identical output at any thread count.
    const RunResult serial = run(lint("--json " + _root.string()));
    const RunResult par = run(lint("--json --jobs 4 " + _root.string()));
    EXPECT_EQ(serial.exit_code, par.exit_code);
    EXPECT_EQ(serial.out, par.out);
    const RunResult text = run(lint(_root.string()));
    const RunResult textPar = run(lint("--jobs 8 " + _root.string()));
    EXPECT_EQ(text.out, textPar.out);
}

TEST_F(LintTest, BadJobsValueIsUsageError)
{
    const RunResult r = run(lint("--jobs nope " + _root.string()));
    EXPECT_EQ(r.exit_code, 2);
}

TEST_F(LintTest, UnknownRuleIsUsageError)
{
    const RunResult r = run(lint("--rule no-such-rule " + _root.string()));
    EXPECT_EQ(r.exit_code, 2);
}

TEST_F(LintTest, NoPathsIsUsageError)
{
    const RunResult r = run(lint("--json"));
    EXPECT_EQ(r.exit_code, 2);
}

} // namespace
