// The price() facade must dispatch to the same implementations the direct
// calls reach, and reject meaningless combinations loudly.

#include <gtest/gtest.h>

#include <stdexcept>

#include "amopt/pricing/api.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/bsm_fdm.hpp"
#include "amopt/pricing/pricer.hpp"
#include "amopt/pricing/topm.hpp"

namespace {

using namespace amopt;
using namespace amopt::pricing;

TEST(Api, BopmCallDispatch) {
  const OptionSpec spec = paper_spec();
  const std::int64_t T = 300;
  EXPECT_DOUBLE_EQ(price(spec, T, Model::bopm, Right::call),
                   bopm::american_call_fft(spec, T));
  EXPECT_DOUBLE_EQ(
      price(spec, T, Model::bopm, Right::call, Style::american,
            Engine::vanilla),
      bopm::american_call_vanilla(spec, T));
  EXPECT_NEAR(price(spec, T, Model::bopm, Right::call, Style::american,
                    Engine::quantlib),
              bopm::american_call_vanilla(spec, T), 1e-9);
  EXPECT_NEAR(price(spec, T, Model::bopm, Right::call, Style::american,
                    Engine::tiled),
              bopm::american_call_vanilla(spec, T), 1e-10);
  EXPECT_NEAR(price(spec, T, Model::bopm, Right::call, Style::american,
                    Engine::cache_oblivious),
              bopm::american_call_vanilla(spec, T), 1e-10);
}

TEST(Api, PutAndOtherModels) {
  const OptionSpec spec = paper_spec();
  const std::int64_t T = 200;
  EXPECT_DOUBLE_EQ(price(spec, T, Model::bopm, Right::put),
                   bopm::american_put_fft(spec, T));
  EXPECT_DOUBLE_EQ(price(spec, T, Model::topm, Right::call),
                   topm::american_call_fft(spec, T));
  EXPECT_DOUBLE_EQ(price(spec, T, Model::bsm, Right::put),
                   bsm::american_put_fft(spec, T));
}

TEST(Api, EuropeanDispatch) {
  const OptionSpec spec = paper_spec();
  const std::int64_t T = 200;
  EXPECT_DOUBLE_EQ(
      price(spec, T, Model::bopm, Right::call, Style::european),
      bopm::european_call_fft(spec, T));
  EXPECT_DOUBLE_EQ(
      price(spec, T, Model::bsm, Right::put, Style::european),
      bsm::european_put_fdm(spec, T));
}

TEST(Api, UnsupportedCombinationsThrow) {
  const OptionSpec spec = paper_spec();
  EXPECT_THROW((void)price(spec, 100, Model::bsm, Right::call),
               std::invalid_argument);
  EXPECT_THROW((void)price(spec, 100, Model::topm, Right::call, Style::american,
                     Engine::quantlib),
               std::invalid_argument);
  EXPECT_THROW((void)price(spec, 100, Model::bopm, Right::put, Style::american,
                     Engine::tiled),
               std::invalid_argument);
}

TEST(Api, ToStringRoundTrips) {
  EXPECT_EQ(to_string(Model::bopm), "bopm");
  EXPECT_EQ(to_string(Model::topm), "topm");
  EXPECT_EQ(to_string(Model::bsm), "bsm");
  EXPECT_EQ(to_string(Right::call), "call");
  EXPECT_EQ(to_string(Style::european), "european");
  EXPECT_EQ(to_string(Engine::cache_oblivious), "cache-oblivious");
}

TEST(Api, FreeFunctionIsThinWrapperOverSession) {
  // price() now routes through a temporary Pricer session; the values must
  // be bit-identical to a session held by the caller.
  const OptionSpec spec = paper_spec();
  const std::int64_t T = 300;
  Pricer session;
  PricingRequest req;
  req.spec = spec;
  req.T = T;
  for (Right r : {Right::call, Right::put}) {
    req.right = r;
    EXPECT_EQ(price(spec, T, Model::bopm, r), session.price_one(req).price);
  }
}

TEST(Api, UnsupportedMessageNamesTheCombination) {
  try {
    (void)price(paper_spec(), 100, Model::bsm, Right::call);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bsm/call/american/fft"),
              std::string::npos);
  }
}

}  // namespace
