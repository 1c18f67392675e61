// Tests for the CLI option parser.
#include <gtest/gtest.h>

#include "cli/args.h"

namespace bgpatoms::cli {
namespace {

Args parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Args(static_cast<int>(argv.size()),
              const_cast<char**>(argv.data()));
}

TEST(Args, SpaceSeparatedValues) {
  const auto args = parse({"--year", "2024.75", "--seed", "7"});
  EXPECT_DOUBLE_EQ(args.get_double("year", 0), 2024.75);
  EXPECT_EQ(args.get_int("seed", 0), 7);
}

TEST(Args, EqualsSeparatedValues) {
  const auto args = parse({"--scale=0.05", "--out=x.bga"});
  EXPECT_DOUBLE_EQ(args.get_double("scale", 0), 0.05);
  EXPECT_EQ(args.get("out"), "x.bga");
}

TEST(Args, BooleanFlags) {
  const auto args = parse({"--v6", "--stability"});
  EXPECT_TRUE(args.has("v6"));
  EXPECT_TRUE(args.has("stability"));
  EXPECT_FALSE(args.has("updates"));
}

TEST(Args, ShortOptions) {
  const auto args = parse({"-o", "out.bga"});
  EXPECT_EQ(args.get("o"), "out.bga");
}

TEST(Args, PositionalArguments) {
  const auto args = parse({"input.bga", "second", "--text"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.bga");
  EXPECT_EQ(args.positional()[1], "second");
  EXPECT_TRUE(args.has("text"));
}

TEST(Args, FlagGreedilyConsumesFollowingValue) {
  // Documented limitation of the minimal parser: "--flag value" binds the
  // value to the flag; put positionals first or use "--flag=".
  const auto args = parse({"--text", "second"});
  EXPECT_EQ(args.get("text"), "second");
  EXPECT_TRUE(args.positional().empty());
}

TEST(Args, Defaults) {
  const auto args = parse({});
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(args.get_int("missing", 9), 9);
  EXPECT_TRUE(args.positional().empty());
}

TEST(Args, FlagFollowedByOption) {
  // "--text --collector rrc00": --text must not swallow "--collector".
  const auto args = parse({"--text", "--collector", "rrc00"});
  EXPECT_TRUE(args.has("text"));
  EXPECT_EQ(args.get("collector"), "rrc00");
}

TEST(Args, NegativeIntegerValue) {
  // Regression: "--seed -3" used to bind seed as a boolean flag because
  // any following token starting with '-' was rejected as a value.
  const auto args = parse({"--seed", "-3"});
  EXPECT_EQ(args.get_int("seed", 0), -3);
  EXPECT_EQ(args.get("seed"), "-3");
  EXPECT_TRUE(args.positional().empty());
}

TEST(Args, NegativeDoubleValue) {
  const auto args = parse({"--offset", "-0.5", "--year", "-2e3"});
  EXPECT_DOUBLE_EQ(args.get_double("offset", 0), -0.5);
  EXPECT_DOUBLE_EQ(args.get_double("year", 0), -2000.0);
}

TEST(Args, NegativeNumberAsPositional) {
  // A bare numeric token is never an option name, even with a leading '-'.
  const auto args = parse({"-3", "input.bga"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "-3");
  EXPECT_EQ(args.positional()[1], "input.bga");
}

TEST(Args, NegativeValueViaEquals) {
  const auto args = parse({"--seed=-7"});
  EXPECT_EQ(args.get_int("seed", 0), -7);
}

TEST(Args, NonNumericDashTokenStaysAnOption) {
  // "-o out" must keep working: "-o" does not parse as a number.
  const auto args = parse({"-o", "out.bga", "--flag", "-x"});
  EXPECT_EQ(args.get("o"), "out.bga");
  EXPECT_TRUE(args.has("flag"));
  EXPECT_TRUE(args.has("x"));
}

TEST(ArgsDeathTest, MalformedIntExitsWithUsageError) {
  // atol("abc") silently returned 0; strict parsing must hard-error.
  const auto args = parse({"--threads", "abc"});
  EXPECT_EXIT(args.get_int("threads", 0), ::testing::ExitedWithCode(2),
              "--threads expects an integer, got 'abc'");
}

TEST(ArgsDeathTest, TrailingGarbageIntExits) {
  const auto args = parse({"--seed", "12x"});
  EXPECT_EXIT(args.get_int("seed", 0), ::testing::ExitedWithCode(2),
              "--seed expects an integer");
}

TEST(ArgsDeathTest, MalformedDoubleExits) {
  const auto args = parse({"--scale", "0.5abc"});
  EXPECT_EXIT(args.get_double("scale", 1.0), ::testing::ExitedWithCode(2),
              "--scale expects a number");
}

TEST(Args, InRangeValueAccepted) {
  const auto args = parse({"--min-peers", "4", "--peer-asn", "4294967295"});
  EXPECT_EQ(args.get_int("min-peers", 0, 0, 1000), 4);
  // UINT32_MAX fits in long; the bound makes the uint32 narrowing safe.
  EXPECT_EQ(args.get_int("peer-asn", 0, 0, 4294967295L), 4294967295L);
}

TEST(Args, RangeBoundsAreInclusive) {
  const auto args = parse({"--n", "7"});
  EXPECT_EQ(args.get_int("n", 0, 7, 7), 7);
}

TEST(Args, AbsentValueSkipsRangeCheck) {
  // The fallback is the caller's business, not a parsed value; it is
  // returned even when outside the declared range.
  const auto args = parse({});
  EXPECT_EQ(args.get_int("snapshot", -1, 0, 100), -1);
}

TEST(ArgsDeathTest, BelowRangeExitsWithUsageError) {
  // Regression: "--min-peers -1" used to flow into an int and wrap; the
  // parse boundary must reject it before any narrowing cast.
  const auto args = parse({"--min-peers", "-1"});
  EXPECT_EXIT(args.get_int("min-peers", 4, 0, 1000),
              ::testing::ExitedWithCode(2),
              "--min-peers expects an integer in \\[0, 1000\\], got '-1'");
}

TEST(ArgsDeathTest, AboveRangeExitsWithUsageError) {
  const auto args = parse({"--peer-asn", "4294967296"});
  EXPECT_EXIT(args.get_int("peer-asn", 0, 0, 4294967295L),
              ::testing::ExitedWithCode(2),
              "--peer-asn expects an integer in \\[0, 4294967295\\]");
}

TEST(Args, DoubleRangeBoundsAreInclusive) {
  const auto args = parse({"--year", "1990", "--scale", "1e3"});
  EXPECT_DOUBLE_EQ(args.get_double("year", 0, 1990.0, 2100.0), 1990.0);
  EXPECT_DOUBLE_EQ(args.get_double("scale", 0, 1e-6, 1e3), 1e3);
}

TEST(Args, AbsentDoubleSkipsRangeCheck) {
  const auto args = parse({});
  EXPECT_DOUBLE_EQ(args.get_double("scale", -1.0, 0.0, 1.0), -1.0);
}

TEST(ArgsDeathTest, DoubleBelowRangeExitsWithUsageError) {
  const auto args = parse({"--scale", "-0.5"});
  EXPECT_EXIT(args.get_double("scale", 0.01, 1e-6, 1e3),
              ::testing::ExitedWithCode(2),
              "--scale expects a number in \\[1e-06, 1000\\], got '-0.5'");
}

TEST(ArgsDeathTest, DoubleAboveRangeExitsWithUsageError) {
  const auto args = parse({"--year", "2101"});
  EXPECT_EXIT(args.get_double("year", 2024.75, 1990.0, 2100.0),
              ::testing::ExitedWithCode(2),
              "--year expects a number in \\[1990, 2100\\]");
}

TEST(ArgsDeathTest, NanNeverSatisfiesARange) {
  // NaN compares false against any bound, so it must error even under
  // the default unbounded range — never flow into a computation.
  const auto args = parse({"--scale", "nan"});
  EXPECT_EXIT(args.get_double("scale", 0.01), ::testing::ExitedWithCode(2),
              "--scale expects a number in");
}

// --- bga_sim parse boundary ---------------------------------------------
// These mirror the exact bounds cli/bga_sim.cpp passes for its numeric
// flags; a bounds change there must be reflected here.

TEST(BgaSimDeathTest, YearOutsideSubstrateRangeExits) {
  const auto args = parse({"--year", "1989"});
  EXPECT_EXIT(args.get_double("year", 2024.75, 1990.0, 2100.0),
              ::testing::ExitedWithCode(2),
              "--year expects a number in \\[1990, 2100\\], got '1989'");
}

TEST(BgaSimDeathTest, ZeroScaleExits) {
  // scale 0 would ask for an empty Internet; the simulator never sees it.
  const auto args = parse({"--scale", "0"});
  EXPECT_EXIT(args.get_double("scale", 0.01, 1e-6, 1e3),
              ::testing::ExitedWithCode(2),
              "--scale expects a number in \\[1e-06, 1000\\], got '0'");
}

TEST(BgaSimDeathTest, NegativeSeedExits) {
  // A negative seed used to wrap through the uint64 cast into a
  // valid-looking universe; it must die at the parse boundary instead.
  const auto args = parse({"--seed", "-3"});
  EXPECT_EXIT(
      args.get_int("seed", 42, 0, std::numeric_limits<long>::max()),
      ::testing::ExitedWithCode(2), "--seed expects an integer in");
}

TEST(BgaSimDeathTest, ScenarioCountsAreBounded) {
  const auto args = parse({"--hijacks", "1001"});
  EXPECT_EXIT(args.get_int("hijacks", 0, 0, 1000),
              ::testing::ExitedWithCode(2),
              "--hijacks expects an integer in \\[0, 1000\\], got '1001'");
}

// --- bga_atoms vp-selection parse boundary ------------------------------
// These mirror the exact bounds cli/bga_atoms.cpp passes for --vp-budget
// and --vp-min-fidelity; a bounds change there must be reflected here.

TEST(BgaAtomsDeathTest, ZeroVpBudgetExits) {
  // A present budget of 0 would select nothing — grouping on zero
  // columns is never what was meant, so the parse boundary rejects it.
  const auto args = parse({"--vp-budget", "0"});
  EXPECT_EXIT(
      args.get_int("vp-budget", 0, 1, std::numeric_limits<long>::max()),
      ::testing::ExitedWithCode(2), "--vp-budget expects an integer in");
}

TEST(BgaAtomsDeathTest, NegativeVpBudgetExits) {
  const auto args = parse({"--vp-budget", "-5"});
  EXPECT_EXIT(
      args.get_int("vp-budget", 0, 1, std::numeric_limits<long>::max()),
      ::testing::ExitedWithCode(2), "--vp-budget expects an integer in");
}

TEST(Args, AbsentVpBudgetFallsBackToDisabled) {
  // The range only guards *present* values: the disabled-state fallback 0
  // passes through untouched.
  const auto args = parse({});
  EXPECT_EQ(
      args.get_int("vp-budget", 0, 1, std::numeric_limits<long>::max()), 0);
}

TEST(BgaAtomsDeathTest, VpMinFidelityAboveOneExits) {
  const auto args = parse({"--vp-min-fidelity", "1.5"});
  EXPECT_EXIT(args.get_double("vp-min-fidelity", 0.0, 0.0, 1.0),
              ::testing::ExitedWithCode(2),
              "--vp-min-fidelity expects a number in \\[0, 1\\], got '1.5'");
}

TEST(BgaAtomsDeathTest, NegativeVpMinFidelityExits) {
  const auto args = parse({"--vp-min-fidelity", "-0.1"});
  EXPECT_EXIT(args.get_double("vp-min-fidelity", 0.0, 0.0, 1.0),
              ::testing::ExitedWithCode(2),
              "--vp-min-fidelity expects a number in \\[0, 1\\]");
}

TEST(BgaAtomsDeathTest, NanVpMinFidelityExits) {
  // NaN never satisfies a range — it must die at the parse boundary, not
  // flow into the selection loop as an unreachable stopping condition.
  const auto args = parse({"--vp-min-fidelity", "nan"});
  EXPECT_EXIT(args.get_double("vp-min-fidelity", 0.0, 0.0, 1.0),
              ::testing::ExitedWithCode(2),
              "--vp-min-fidelity expects a number in");
}

TEST(Args, PrefixAccessor) {
  const auto args = parse({"--prefix", "10.0.0.0/8", "--lookup", "192.0.2.1"});
  const auto p = args.get_prefix("prefix");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->to_string(), "10.0.0.0/8");
  // A bare address becomes a host route through the shared strict parser.
  const auto host = args.get_prefix("lookup");
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(host->to_string(), "192.0.2.1/32");
  EXPECT_FALSE(args.get_prefix("absent").has_value());
}

TEST(ArgsDeathTest, MalformedPrefixExitsWithUsageError) {
  // The old bga_dump --filter path silently skipped malformed prefixes;
  // the shared parse boundary must make them a hard usage error.
  const auto args = parse({"--prefix", "10.0.0.0/33"});
  EXPECT_EXIT(args.get_prefix("prefix"), ::testing::ExitedWithCode(2),
              "--prefix expects an IP prefix or address, got '10.0.0.0/33'");
}

TEST(ArgsDeathTest, NonAddressPrefixExits) {
  const auto args = parse({"--prefix", "not-a-prefix"});
  EXPECT_EXIT(args.get_prefix("prefix"), ::testing::ExitedWithCode(2),
              "--prefix expects an IP prefix or address");
}

TEST(ArgsDeathTest, MissingValueIsMalformedNotZero) {
  // A flag used where a numeric option was meant ("--snapshot" with no
  // value) errors instead of silently parsing the empty string as 0.
  const auto args = parse({"--snapshot"});
  EXPECT_EXIT(args.get_int("snapshot", 0), ::testing::ExitedWithCode(2),
              "--snapshot expects an integer");
}

// --- accept(): unknown options are usage errors --------------------------

TEST(Args, AcceptKnownOptionsPasses) {
  const auto args =
      parse({"x.bga", "--text", "--peer-asn", "1", "--prefix=10.0.0.0/8",
             "-o", "out.bga"});
  args.accept({"text", "peer-asn", "prefix", "o"});
  EXPECT_EQ(args.get("peer-asn"), "1");
}

TEST(ArgsDeathTest, UnknownOptionExitsWithUsageError) {
  // The typo that used to dump every record unfiltered.
  const auto args = parse({"x.bga", "--text", "--peer-as", "1"});
  EXPECT_EXIT(args.accept({"text", "peer-asn"}), ::testing::ExitedWithCode(2),
              "error: unknown option --peer-as ");
}

TEST(ArgsDeathTest, UnknownEqualsOptionExitsWithUsageError) {
  const auto args = parse({"--colector=rrc00"});
  EXPECT_EXIT(args.accept({"collector"}), ::testing::ExitedWithCode(2),
              "error: unknown option --colector ");
}

TEST(ArgsDeathTest, UnknownShortOptionExitsWithUsageError) {
  const auto args = parse({"-x", "out.bga"});
  EXPECT_EXIT(args.accept({"o", "out"}), ::testing::ExitedWithCode(2),
              "error: unknown option -x ");
}

TEST(ArgsDeathTest, HelpIsAlwaysAcceptedAndExitsZero) {
  const auto args = parse({"--help"});
  args.accept({"text"});
  // Also when the tool's required arguments are missing ("bga_dump
  // --help" has no archive).
  EXPECT_EXIT(args.usage_if(true, "usage: prog\n"),
              ::testing::ExitedWithCode(0), "usage: prog");
}

TEST(ArgsDeathTest, MissingRequiredArgumentsExitTwo) {
  const auto args = parse({});
  EXPECT_EXIT(args.usage_if(true, "usage: prog\n"),
              ::testing::ExitedWithCode(2), "usage: prog");
}

}  // namespace
}  // namespace bgpatoms::cli
