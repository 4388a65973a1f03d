// Scenario-registry coverage: the built-in names are registered, specs
// round-trip, errors are actionable, and new entries integrate by
// registration alone.
#include "src/sim/registry.hpp"

#include <gtest/gtest.h>

namespace colscore {
namespace {

TEST(Registry, EveryBuiltinWorkloadIsRegistered) {
  for (const char* name : {"planted", "identical", "lower_bound", "chained",
                           "uniform", "two_blocks"}) {
    EXPECT_TRUE(WorkloadRegistry::instance().contains(name)) << name;
    EXPECT_FALSE(WorkloadRegistry::instance().at(name).description.empty());
  }
}

TEST(Registry, EveryBuiltinAdversaryIsRegistered) {
  for (const char* name : {"none", "random_liar", "inverter", "constant_one",
                           "targeted_bias", "hijacker", "sleeper",
                           "strange_colluder"})
    EXPECT_TRUE(AdversaryRegistry::instance().contains(name)) << name;
}

TEST(Registry, EveryBuiltinAlgorithmIsRegistered) {
  for (const char* name : {"calculate_preferences", "robust", "probe_all",
                           "random_guess", "oracle_clusters",
                           "sample_and_share"})
    EXPECT_TRUE(AlgorithmRegistry::instance().contains(name)) << name;
}

TEST(Registry, HistoricalAliasesResolve) {
  EXPECT_EQ(AlgorithmRegistry::instance().canonical("calc"),
            "calculate_preferences");
  EXPECT_EQ(AlgorithmRegistry::instance().canonical("oracle"), "oracle_clusters");
  EXPECT_EQ(AlgorithmRegistry::instance().canonical("baseline"),
            "sample_and_share");
}

TEST(Registry, UnknownNamesProduceActionableErrors) {
  try {
    (void)WorkloadRegistry::instance().at("martian");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown workload 'martian'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("planted"), std::string::npos) << msg;  // lists options
  }
}

TEST(ScenarioSpec, ParseToStringRoundTrips) {
  ScenarioSpec spec;
  spec.workload = "chained";
  spec.adversary = "sleeper";
  spec.algorithm = "robust";
  spec.set("n", "512").set("dishonest", "20").set("vote_min", "11");
  EXPECT_EQ(ScenarioSpec::parse(spec.to_string()), spec);

  const ScenarioSpec defaults;  // no overrides at all
  EXPECT_EQ(ScenarioSpec::parse(defaults.to_string()), defaults);
}

TEST(ScenarioSpec, ParseAppliesTokensOntoABase) {
  ScenarioSpec base;
  base.adversary = "sleeper";
  base.set("budget", "4").set("dishonest", "8");
  ScenarioSpec want = base;
  want.set("budget", "2").set("n", "64");
  EXPECT_EQ(ScenarioSpec::parse("n=64 budget=2", base), want);
}

TEST(ScenarioSpec, ParseRejectsMalformedTokens) {
  EXPECT_THROW(ScenarioSpec::parse("n512"), ScenarioError);
  EXPECT_THROW(ScenarioSpec::parse("n="), ScenarioError);
  EXPECT_THROW(ScenarioSpec::parse("=512"), ScenarioError);
}

TEST(Scenario, ResolveAppliesOverrides) {
  const Scenario sc = Scenario::resolve(ScenarioSpec::parse(
      "workload=identical adversary=inverter algorithm=calc n=96 budget=4 "
      "dishonest=7 seed=5 zipf=1 opt=0 vote_min=11 sample_rate_c=8.5"));
  EXPECT_EQ(sc.workload, "identical");
  EXPECT_EQ(sc.adversary, "inverter");
  EXPECT_EQ(sc.algorithm, "calculate_preferences");  // alias canonicalized
  EXPECT_EQ(sc.n, 96u);
  EXPECT_EQ(sc.budget, 4u);
  EXPECT_EQ(sc.dishonest, 7u);
  EXPECT_EQ(sc.seed, 5u);
  EXPECT_TRUE(sc.zipf_sizes);
  EXPECT_FALSE(sc.compute_opt);
  EXPECT_EQ(sc.params.vote_min, 11u);
  EXPECT_DOUBLE_EQ(sc.params.sample_rate_c, 8.5);
}

TEST(Scenario, ResolveRejectsUnknownOverrideKeys) {
  try {
    (void)Scenario::resolve(ScenarioSpec::parse("frobnicate=3"));
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown override key 'frobnicate'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("budget"), std::string::npos) << msg;  // lists keys
  }
}

TEST(Scenario, ResolveRejectsBadValues) {
  EXPECT_THROW(Scenario::resolve(ScenarioSpec::parse("n=abc")), ScenarioError);
  EXPECT_THROW(Scenario::resolve(ScenarioSpec::parse("n=12x")), ScenarioError);
  // A padded negative must not wrap to 2^64-1 (whitespace never splits a
  // --set or suite-file value the way it splits a spec string).
  EXPECT_THROW(Scenario::resolve(ScenarioSpec{}.set("n", " -1")),
               ScenarioError);
  EXPECT_THROW(Scenario::resolve(ScenarioSpec::parse("zipf=maybe")),
               ScenarioError);
}

TEST(Scenario, PaperParamsExpandThenRefine) {
  const Scenario sc = Scenario::resolve(
      ScenarioSpec::parse("paper_params=1 budget=4 vote_min=13"));
  const Params paper = Params::paper(4);
  EXPECT_DOUBLE_EQ(sc.params.sr_subset_exponent, paper.sr_subset_exponent);
  EXPECT_EQ(sc.params.vote_min, 13u);  // field override wins over the preset
}

TEST(Scenario, RegisteredDefaultsApplyAndUserWins) {
  // probe_all registers opt=0 as a default override.
  EXPECT_FALSE(
      Scenario::resolve(ScenarioSpec::parse("algorithm=probe_all")).compute_opt);
  EXPECT_TRUE(Scenario::resolve(ScenarioSpec::parse("algorithm=probe_all opt=1"))
                  .compute_opt);
}

TEST(Scenario, ToSpecRoundTripsThroughResolve) {
  Scenario sc;
  sc.workload = "chained";
  sc.adversary = "hijacker";
  sc.algorithm = "robust";
  sc.n = 80;
  sc.budget = 4;
  sc.seed = 123;
  sc.dishonest = 6;
  sc.compute_opt = false;
  sc.params.vote_min = 15;
  const Scenario back = Scenario::resolve(sc.to_spec());
  EXPECT_EQ(back.workload, sc.workload);
  EXPECT_EQ(back.adversary, sc.adversary);
  EXPECT_EQ(back.algorithm, sc.algorithm);
  EXPECT_EQ(back.n, sc.n);
  EXPECT_EQ(back.budget, sc.budget);
  EXPECT_EQ(back.seed, sc.seed);
  EXPECT_EQ(back.dishonest, sc.dishonest);
  EXPECT_EQ(back.compute_opt, sc.compute_opt);
  EXPECT_EQ(back.params.vote_min, sc.params.vote_min);
}

TEST(Registry, DuplicateRegistrationProducesTheDocumentedError) {
  WorkloadRegistry::instance().add(
      "dup_probe", {"duplicate-registration probe (test-only)",
                    [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
                      return uniform_random(sc.n, sc.n, rng);
                    }});
  try {
    WorkloadRegistry::instance().add(
        "dup_probe", {"second registration",
                      [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
                        return uniform_random(sc.n, sc.n, rng);
                      }});
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("workload 'dup_probe' is already registered"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("replace()"), std::string::npos) << msg;
  }
  // replace() is the intentional spelling and must succeed.
  WorkloadRegistry::instance().replace(
      "dup_probe", {"replaced on purpose",
                    [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
                      return uniform_random(sc.n, sc.n, rng);
                    }});
  EXPECT_EQ(WorkloadRegistry::instance().at("dup_probe").description,
            "replaced on purpose");
}

TEST(Registry, SchemaKeysMayNotShadowBuiltinOverrides) {
  try {
    WorkloadRegistry::instance().add(
        "shadow_probe", {"schema-shadow probe (test-only)",
                         [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
                           return uniform_random(sc.n, sc.n, rng);
                         },
                         {},
                         {{"n", ParamType::kSize, "shadows the core key"}}});
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what())
                  .find("schema key 'n' shadows a built-in override key"),
              std::string::npos)
        << e.what();
  }
}

TEST(Registry, DefaultsMustBeBuiltinOrSchemaKeys) {
  try {
    WorkloadRegistry::instance().add(
        "default_probe", {"bad-default probe (test-only)",
                          [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
                            return uniform_random(sc.n, sc.n, rng);
                          },
                          {{"mystery_knob", "3"}}});
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("default override 'mystery_knob'"), std::string::npos)
        << msg;
  }
  // A mistyped value for a schema-declared default also fails at add().
  try {
    WorkloadRegistry::instance().add(
        "default_probe", {"bad-typed-default probe (test-only)",
                          [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
                            return uniform_random(sc.n, sc.n, rng);
                          },
                          {{"knob", "lots"}},
                          {{"knob", ParamType::kSize, "a knob"}}});
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'knob=lots'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unsigned integer"), std::string::npos) << msg;
  }
}

TEST(Registry, SchemaTypedOverridesValidateAndReachTheFactory) {
  // The schema idiom end to end: declare typed keys at registration, set
  // them in a spec, read them back through Scenario::extra_* in the factory.
  WorkloadRegistry::instance().add(
      "schema_probe",
      {"schema-declared knobs probe (test-only)",
       [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
         // The typed knob is observable through the planted diameter.
         return planted_clusters(sc.n, sc.n, 2,
                                 2 * sc.extra_size("blocks", 1), rng);
       },
       {{"blocks", "2"}},
       {{"blocks", ParamType::kSize, "half the planted diameter"},
        {"spread", ParamType::kDouble, "unused here"},
        {"mirror", ParamType::kBool, "unused here"}}});

  // Registered default applies; extras survive resolve and to_spec.
  const Scenario with_default = Scenario::resolve(
      ScenarioSpec::parse("workload=schema_probe n=32 opt=0"));
  EXPECT_EQ(with_default.extra_size("blocks", 1), 2u);
  const Scenario overridden = Scenario::resolve(ScenarioSpec::parse(
      "workload=schema_probe n=32 opt=0 blocks=3 spread=0.5 mirror=true"));
  EXPECT_EQ(overridden.extra_size("blocks", 1), 3u);
  EXPECT_DOUBLE_EQ(overridden.extra_double("spread", 0.0), 0.5);
  EXPECT_TRUE(overridden.extra_bool("mirror", false));
  EXPECT_EQ(overridden.to_spec().overrides.at("blocks"), "3");
  EXPECT_EQ(Scenario::resolve(overridden.to_spec()).extra_size("blocks", 0),
            3u);

  // The factory observes the typed value (blocks=3 -> diameter 6).
  const ExperimentOutcome out = run_scenario(overridden);
  EXPECT_EQ(out.planted_diameter, 6u);

  // Wrong-typed value: the documented error names the entry and key=value.
  try {
    (void)Scenario::resolve(
        ScenarioSpec::parse("workload=schema_probe blocks=abc"));
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("workload 'schema_probe' override 'blocks=abc'"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("expected an unsigned integer"), std::string::npos)
        << msg;
  }

  // Schema keys only exist for entries that declare them...
  EXPECT_THROW((void)Scenario::resolve(
                   ScenarioSpec::parse("workload=planted blocks=3")),
               ScenarioError);
  // ...and the unknown-key error advertises them for entries that do.
  try {
    (void)Scenario::resolve(
        ScenarioSpec::parse("workload=schema_probe blks=3"));
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown override key 'blks'"), std::string::npos) << msg;
    // Schema keys are advertised grouped per declaring entry.
    EXPECT_NE(
        msg.find("workload 'schema_probe' also accepts: blocks, spread, mirror"),
        std::string::npos)
        << msg;
  }
}

TEST(Registry, NewAdversaryRunsEndToEndWithoutEnumChanges) {
  // The acceptance demo: registration alone makes a new attack runnable.
  AdversaryRegistry::instance().add(
      "pessimist", {"claims to dislike every object (test-only)",
                    [](const Scenario&, const World&, PlayerId) {
                      return std::make_unique<ConstantReporter>(false);
                    }});
  EXPECT_TRUE(AdversaryRegistry::instance().contains("pessimist"));

  const ExperimentOutcome out = run_scenario(Scenario::resolve(
      ScenarioSpec::parse("adversary=pessimist n=64 budget=4 dishonest=6 "
                          "seed=3 opt=0")));
  EXPECT_EQ(out.honest_players, 58u);
  EXPECT_LE(out.error.max_error, 64u);
}

}  // namespace
}  // namespace colscore
