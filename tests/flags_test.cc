#include "common/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"

namespace dcv {
namespace {

FlagSet MakeSet() {
  FlagSet flags;
  flags.Value("sites").Value("trace").Value("eps");
  flags.Boolean("quiet").Boolean("virtual-time");
  return flags;
}

TEST(FlagSetTest, ParsesBothValueSyntaxes) {
  auto parsed = MakeSet().Parse({"--sites=8", "--trace", "week.csv"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->GetString("sites", ""), "8");
  EXPECT_EQ(parsed->GetString("trace", ""), "week.csv");
  EXPECT_TRUE(parsed->Has("sites"));
  EXPECT_FALSE(parsed->Has("eps"));
}

TEST(FlagSetTest, TypedLookupsAndFallbacks) {
  auto parsed = MakeSet().Parse({"--sites", "12", "--eps=0.25"});
  ASSERT_TRUE(parsed.ok());
  auto sites = parsed->GetInt("sites", 4);
  ASSERT_TRUE(sites.ok());
  EXPECT_EQ(*sites, 12);
  auto eps = parsed->GetDouble("eps", 0.1);
  ASSERT_TRUE(eps.ok());
  EXPECT_DOUBLE_EQ(*eps, 0.25);
  auto fallback = parsed->GetInt("trace", 99);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(*fallback, 99);
}

TEST(FlagSetTest, BooleanFlags) {
  auto parsed = MakeSet().Parse({"--quiet", "--virtual-time=0"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->GetBool("quiet"));
  EXPECT_FALSE(parsed->GetBool("virtual-time"));

  auto absent = MakeSet().Parse(std::vector<std::string>{});
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(absent->GetBool("quiet"));
}

TEST(FlagSetTest, BooleanWordSpellings) {
  auto parsed = MakeSet().Parse({"--quiet=true", "--virtual-time=False"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_TRUE(parsed->GetBool("quiet"));
  EXPECT_FALSE(parsed->GetBool("virtual-time"));

  auto yes_no = MakeSet().Parse({"--quiet=YES", "--virtual-time=no"});
  ASSERT_TRUE(yes_no.ok());
  EXPECT_TRUE(yes_no->GetBool("quiet"));
  EXPECT_FALSE(yes_no->GetBool("virtual-time"));
}

TEST(FlagSetTest, RejectsMalformedBooleanAtParseTime) {
  // The old behavior treated any value != "0" as true, so "--quiet=maybe"
  // (or a typo like "flase") silently enabled the flag. It must error.
  auto parsed = MakeSet().Parse({"--quiet=maybe"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("invalid boolean value 'maybe'"),
            std::string::npos)
      << parsed.status().message();
  EXPECT_NE(parsed.status().message().find("--quiet"), std::string::npos);

  EXPECT_FALSE(MakeSet().Parse({"--virtual-time=flase"}).ok());
  EXPECT_FALSE(MakeSet().Parse({"--quiet=2"}).ok());
  EXPECT_FALSE(MakeSet().Parse({"--quiet="}).ok());
}

TEST(FlagSetTest, GetBoolValueOnValueFlags) {
  auto parsed = MakeSet().Parse({"--trace", "false", "--sites=1"});
  ASSERT_TRUE(parsed.ok());
  auto off = parsed->GetBoolValue("trace", true);
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(*off);
  // "--sites=1" reads as boolean true; absent flag yields the fallback.
  auto on = parsed->GetBoolValue("sites", false);
  ASSERT_TRUE(on.ok());
  EXPECT_TRUE(*on);
  auto fallback = parsed->GetBoolValue("eps", true);
  ASSERT_TRUE(fallback.ok());
  EXPECT_TRUE(*fallback);
}

TEST(FlagSetTest, GetBoolValueRejectsGarbage) {
  // Value flags skip parse-time boolean validation (most are not booleans),
  // so the typed lookup must do it: "--acks ture" must not enable acks.
  auto parsed = MakeSet().Parse({"--trace=ture"});
  ASSERT_TRUE(parsed.ok());
  auto as_bool = parsed->GetBoolValue("trace", false);
  ASSERT_FALSE(as_bool.ok());
  EXPECT_NE(as_bool.status().message().find("invalid boolean value 'ture'"),
            std::string::npos)
      << as_bool.status().message();
}

TEST(FlagSetTest, SpaceFormDoesNotConsumeNextFlag) {
  // "--trace --quiet" forgot the value; the old parser consumed "--quiet"
  // as the trace path and then reported the *next* flag as unknown (or
  // silently misbehaved). It must name the flag whose value is missing.
  auto parsed = MakeSet().Parse({"--trace", "--quiet"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("flag --trace needs a value"),
            std::string::npos)
      << parsed.status().message();
  // A value that merely starts with a dash (not double) still parses.
  auto negative = MakeSet().Parse({"--eps", "-0.5"});
  ASSERT_TRUE(negative.ok());
  auto eps = negative->GetDouble("eps", 0.0);
  ASSERT_TRUE(eps.ok());
  EXPECT_DOUBLE_EQ(*eps, -0.5);
}

TEST(FlagSetTest, RejectsUnknownFlag) {
  auto parsed = MakeSet().Parse({"--treshold", "5"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("unknown flag"), std::string::npos)
      << parsed.status().message();
}

TEST(FlagSetTest, RejectsDuplicateFlag) {
  auto parsed = MakeSet().Parse({"--sites", "4", "--sites=8"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("duplicate flag"),
            std::string::npos)
      << parsed.status().message();
}

TEST(FlagSetTest, RejectsMissingValueAndBadSyntax) {
  EXPECT_FALSE(MakeSet().Parse({"--sites"}).ok());
  EXPECT_FALSE(MakeSet().Parse({"sites=4"}).ok());
  EXPECT_FALSE(MakeSet().Parse({"-sites", "4"}).ok());
}

TEST(FlagSetTest, RequiredAndNumericErrors) {
  auto parsed = MakeSet().Parse({"--sites=abc"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->GetInt("sites", 0).ok());
  EXPECT_FALSE(parsed->GetRequired("trace").ok());
  auto req = parsed->GetRequired("sites");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(*req, "abc");
}

TEST(FlagSetTest, ParsesFromArgv) {
  const char* argv[] = {"dcvtool", "run", "--sites=3", "--quiet"};
  auto parsed = MakeSet().Parse(4, const_cast<char* const*>(argv), 2);
  ASSERT_TRUE(parsed.ok());
  auto sites = parsed->GetInt("sites", 0);
  ASSERT_TRUE(sites.ok());
  EXPECT_EQ(*sites, 3);
  EXPECT_TRUE(parsed->GetBool("quiet"));
}

// --- Seeded mutation (argv is untrusted input) ------------------------------

/// Every outcome of a parse is either a ParsedFlags whose typed lookups
/// answer or fail cleanly, or a non-OK Status with a message.
void CheckOutcome(const Result<ParsedFlags>& parsed,
                  const std::vector<std::string>& args) {
  std::string line;
  for (const std::string& a : args) {
    line += "[" + a + "] ";
  }
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_FALSE(parsed.status().message().empty()) << line;
    return;
  }
  for (const char* key : {"quiet", "virtual-time"}) {
    const std::string v = parsed->GetString(key, "0");
    EXPECT_TRUE(v == "0" || v == "1") << key << "=" << v << " in " << line;
    (void)parsed->GetBool(key);
  }
  for (const char* key : {"sites", "trace", "eps"}) {
    auto as_int = parsed->GetInt(key, 0);
    auto as_double = parsed->GetDouble(key, 0.0);
    auto as_bool = parsed->GetBoolValue(key, false);
    for (const Status& st :
         {as_int.status(), as_double.status(), as_bool.status()}) {
      if (!st.ok()) {
        EXPECT_NE(st.code(), StatusCode::kInternal) << line;
        EXPECT_FALSE(st.message().empty()) << line;
      }
    }
  }
}

const char kArgAlphabet[] = "-=-=abcdeilqstuv0123456789.e+ \t\xff";

std::string RandomToken(Rng& rng) {
  std::string t;
  const int64_t len = rng.UniformInt(0, 12);
  for (int64_t i = 0; i < len; ++i) {
    t.push_back(kArgAlphabet[rng.UniformInt(
        0, static_cast<int64_t>(sizeof(kArgAlphabet)) - 2)]);
  }
  return t;
}

TEST(FlagSetFuzzTest, MutatedArgvNeverCrashes) {
  const std::vector<std::string> base = {
      "--sites",  "8",    "--trace=week.csv", "--quiet",
      "--eps",    "0.25", "--virtual-time=no"};
  ASSERT_TRUE(MakeSet().Parse(base).ok());
  Rng rng(0xF1A6);
  int parsed_ok = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<std::string> args = base;
    const int edits = static_cast<int>(rng.UniformInt(1, 3));
    for (int e = 0; e < edits; ++e) {
      const int64_t n = static_cast<int64_t>(args.size());
      const size_t at =
          static_cast<size_t>(rng.UniformInt(0, n > 0 ? n - 1 : 0));
      switch (rng.UniformInt(0, 5)) {
        case 0:  // Drop a token.
          if (!args.empty()) {
            args.erase(args.begin() + static_cast<std::ptrdiff_t>(at));
          }
          break;
        case 1:  // Repeat a token somewhere else.
          if (!args.empty()) {
            const std::string copy = args[at];
            args.insert(args.begin() + rng.UniformInt(0, n), copy);
          }
          break;
        case 2:  // Swap two tokens.
          if (n > 1) {
            std::swap(args[at], args[static_cast<size_t>(
                                    rng.UniformInt(0, n - 1))]);
          }
          break;
        case 3:  // Flip one byte of a token.
          if (!args.empty() && !args[at].empty()) {
            args[at][static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(args[at].size()) - 1))] =
                static_cast<char>(rng.UniformInt(0, 255));
          }
          break;
        case 4:  // Truncate a token.
          if (!args.empty()) {
            args[at].resize(static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(args[at].size()))));
          }
          break;
        default:  // Splice in a random token.
          args.insert(args.begin() + rng.UniformInt(0, n), RandomToken(rng));
          break;
      }
    }
    auto parsed = MakeSet().Parse(args);
    parsed_ok += parsed.ok() ? 1 : 0;
    CheckOutcome(parsed, args);
  }
  // Light mutation keeps a healthy fraction of argument lines valid.
  EXPECT_GT(parsed_ok, 1000);
}

TEST(FlagSetFuzzTest, RandomArgvNeverCrashes) {
  Rng rng(0xF1A7);
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<std::string> args;
    const int64_t count = rng.UniformInt(0, 6);
    for (int64_t i = 0; i < count; ++i) {
      args.push_back(rng.Bernoulli(0.5) ? "--" + RandomToken(rng)
                                        : RandomToken(rng));
    }
    // The argv overload is the one main() calls.
    std::vector<char*> argv = {const_cast<char*>("dcvtool")};
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    CheckOutcome(
        MakeSet().Parse(static_cast<int>(argv.size()), argv.data(), 1), args);
  }
}

}  // namespace
}  // namespace dcv
