// Publication-format round trip: parse_census(render_census(x)) == x for
// every published shape (the archive's CSV bridge depends on this), and
// malformed files fail with errors naming the 1-based line.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "census/output.hpp"

namespace laces::census {
namespace {

net::Prefix v4(std::uint8_t a, std::uint8_t b, std::uint8_t c) {
  return net::Ipv4Prefix(net::Ipv4Address(a, b, c, 0), 24);
}

DailyCensus parse_str(const std::string& text) {
  std::istringstream in(text);
  return parse_census(in);
}

/// Every published record shape: multi-protocol with an unresponsive
/// protocol alongside, GCD-only, anycast-based-only with empty locations,
/// partial flag, IPv6.
DailyCensus make_published_census() {
  DailyCensus census;
  census.day = 31;

  PrefixRecord a;
  a.prefix = v4(10, 1, 0);
  a.anycast_based[net::Protocol::kIcmp] = {core::Verdict::kAnycast, 14};
  a.anycast_based[net::Protocol::kTcp] = {core::Verdict::kUnresponsive, 0};
  a.anycast_based[net::Protocol::kUdpDns] = {core::Verdict::kUnicast, 1};
  a.gcd_verdict = gcd::GcdVerdict::kAnycast;
  a.gcd_site_count = 9;
  a.gcd_locations = {0, 4, 7};
  census.records.emplace(a.prefix, a);

  PrefixRecord b;  // GCD-only, no locations resolved
  b.prefix = v4(10, 2, 0);
  b.gcd_verdict = gcd::GcdVerdict::kAnycast;
  b.gcd_site_count = 2;
  census.records.emplace(b.prefix, b);

  PrefixRecord c;  // anycast-based only, partial
  c.prefix = v4(10, 3, 0);
  c.anycast_based[net::Protocol::kIcmp] = {core::Verdict::kAnycast, 3};
  c.gcd_verdict = gcd::GcdVerdict::kUnicast;
  c.partial_anycast = true;
  census.records.emplace(c.prefix, c);

  PrefixRecord d;  // IPv6
  d.prefix = net::Ipv6Prefix(net::Ipv6Address(0x20010db8deadbeefULL, 0), 48);
  d.anycast_based[net::Protocol::kUdpDns] = {core::Verdict::kAnycast, 6};
  census.records.emplace(d.prefix, d);
  return census;
}

TEST(CensusOutputRoundTrip, PublishedCensusRoundTrips) {
  const auto census = make_published_census();
  const auto parsed = parse_str(render_census(census));
  EXPECT_EQ(parsed, census);
}

TEST(CensusOutputRoundTrip, DegradedMarkerRoundTrips) {
  auto census = make_published_census();
  census.degraded = true;
  census.lost_sites = 5;
  census.canary_alarms = 2;
  const auto rendered = render_census(census);
  EXPECT_NE(rendered.find("# degraded: lost_sites=5 canary_alarms=2"),
            std::string::npos);
  EXPECT_EQ(parse_str(rendered), census);
}

TEST(CensusOutputRoundTrip, EmptyCensusRoundTrips) {
  DailyCensus census;
  census.day = 7;
  EXPECT_EQ(parse_str(render_census(census)), census);
}

TEST(CensusOutputRoundTrip, RenderIsAFixedPoint) {
  const auto census = make_published_census();
  EXPECT_EQ(render_census(parse_str(render_census(census))),
            render_census(census));
}

void expect_parse_error(const std::string& text, const std::string& line_tag,
                        const std::string& what_fragment) {
  try {
    parse_str(text);
    FAIL() << "parsed despite: " << what_fragment;
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(line_tag), std::string::npos)
        << "error lacks line number '" << line_tag << "': " << msg;
    EXPECT_NE(msg.find(what_fragment), std::string::npos) << msg;
  }
}

TEST(CensusOutputRoundTrip, ParseErrorsNameTheLine) {
  const auto census = make_published_census();
  const auto good = render_census(census);

  expect_parse_error("", "line 1", "missing day header");
  expect_parse_error("# LACeS census day 1\n", "line 2",
                     "missing column header");
  expect_parse_error("# LACeS census day 1\nwrong header\n", "line 2",
                     "bad column header");
  // Line 3 = first record line of a healthy (non-degraded) file.
  expect_parse_error(good + "short,line\n", "line 7", "bad field count");
  const std::string header = "# LACeS census day 1\n" + csv_header() + "\n";
  expect_parse_error(
      header + "10.0.0.0/24,maybe,1,n/a,0,n/a,0,n/a,0,full,\n", "line 3",
      "bad anycast-based verdict");
  expect_parse_error(
      header + "10.0.0.0/24,anycast,x,n/a,0,n/a,0,n/a,0,full,\n", "line 3",
      "bad VP count");
  expect_parse_error(
      header + "not-a-prefix,anycast,1,n/a,0,n/a,0,n/a,0,full,\n", "line 3",
      "bad prefix");
  expect_parse_error(header +
                         "10.0.0.0/24,anycast,1,n/a,0,n/a,0,n/a,0,full,\n"
                         "10.0.0.0/24,anycast,1,n/a,0,n/a,0,n/a,0,full,\n",
                     "line 4", "duplicate prefix");
  expect_parse_error(
      header + "10.0.0.0/24,anycast,1,n/a,0,n/a,0,wat,0,full,\n", "line 3",
      "bad GCD verdict");
  expect_parse_error(
      header + "10.0.0.0/24,anycast,1,n/a,0,n/a,0,n/a,0,half,\n", "line 3",
      "bad partial flag");

  // Numbers are whole decimal fields that fit their type: nothing wraps,
  // truncates or loses its sign on the way into the archive.
  for (const char* vps : {"4294967297", "-5", "7 junk", "+7", ""}) {
    expect_parse_error(header + "10.0.0.0/24,anycast," + vps +
                           ",n/a,0,n/a,0,n/a,0,full,\n",
                       "line 3", "bad VP count");
  }
  expect_parse_error(
      header + "10.0.0.0/24,anycast,1,n/a,0,n/a,0,anycast,4294967296,full,\n",
      "line 3", "bad gcd_sites");
  expect_parse_error("# LACeS census day 1\n# degraded: lost_sites=70000 "
                     "canary_alarms=2\n" +
                         csv_header() + "\n",
                     "line 2", "bad lost_sites");
  expect_parse_error("# LACeS census day 1\n# degraded: lost_sites=1 "
                     "canary_alarms=-2\n" +
                         csv_header() + "\n",
                     "line 2", "bad canary_alarms");
  expect_parse_error("# LACeS census day 4294967296\n" + csv_header() + "\n",
                     "line 1", "bad day number");
  expect_parse_error(
      header + "2001:db8::/304,anycast,1,n/a,0,n/a,0,n/a,0,full,\n", "line 3",
      "bad prefix length");
  expect_parse_error(
      header + "2001:db8::/200,anycast,1,n/a,0,n/a,0,n/a,0,full,\n", "line 3",
      "bad prefix length");
  // The degraded marker's space-separated fields still parse.
  const auto degraded =
      parse_str("# LACeS census day 2\n# degraded: lost_sites=65535 "
                "canary_alarms=4294967295\n" +
                csv_header() + "\n");
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.lost_sites, 65535u);
  EXPECT_EQ(degraded.canary_alarms, 4294967295u);
}

}  // namespace
}  // namespace laces::census
