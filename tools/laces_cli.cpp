// laces — command-line front end for the simulated anycast census system.
//
//   laces world    [--seed N] [--scale K]        inspect the simulated world
//   laces census   [--days N] [--out DIR] ...    run the daily pipeline
//   laces probe    --prefix A.B.C.0/24 ...       full workup of one prefix
//   laces catchment [...]                        catchment distribution
//   laces query    --archive DIR ...             query an archived series
//   laces serve    --archive DIR ...             concurrent query server
//   laces bench-serve --archive DIR ...          query-server load test
//   laces relay    --archive DIR ...             in-process relay mesh demo
//   laces subscribe --archive DIR ...            follow a census delta feed
//
// Every subcommand builds its own deterministic world; --seed reproduces a
// run exactly. `census --archive DIR` persists each day into a laces_store
// archive (plus a resume checkpoint); `census --archive DIR --resume`
// continues a killed series byte-identically. `serve` runs the laces_serve
// thread-pool server in-process and drives scripted request lines through
// the framed protocol; `bench-serve` runs the load generator against it.
// `relay` chains N laces_mesh relays over the archive, replays the census
// delta feed down the chain, checks byte-identity at the tail, and answers
// scripted queries forwarded hop by hop up the chain to the origin server.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "census/longitudinal.hpp"
#include "census/output.hpp"
#include "census/pipeline.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "obs/export.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "core/classify.hpp"
#include "core/session.hpp"
#include "gcd/classify.hpp"
#include "hitlist/hitlist.hpp"
#include "mesh/relay.hpp"
#include "platform/latency.hpp"
#include "platform/platform.hpp"
#include "platform/traceroute.hpp"
#include "scenario/fuzzer.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "serve/json.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "store/archive.hpp"
#include "store/query.hpp"
#include "topo/network.hpp"
#include "topo/world.hpp"
#include "util/table.hpp"

namespace {

using namespace laces;

struct Args {
  std::map<std::string, std::string> options;
  bool has(const std::string& key) const { return options.contains(key); }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  long get_int(const std::string& key, long fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : std::stol(it->second);
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    std::string value = "true";
    if (const auto eq = key.find('='); eq != std::string::npos) {
      // --key=value form.
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    args.options[key] = value;
  }
  return args;
}

topo::WorldConfig world_config(const Args& args) {
  topo::WorldConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const long scale = args.get_int("scale", 8);
  if (scale > 1) {
    const auto s = static_cast<std::size_t>(scale);
    cfg.v4_unicast /= s;
    cfg.v4_unresponsive /= s;
    cfg.v4_medium_anycast_orgs /= s;
    cfg.v4_regional_anycast /= s;
    cfg.v4_global_bgp_unicast /= s;
    cfg.v4_temporary_anycast /= s;
    cfg.v4_partial_anycast /= s;
    cfg.v6_unicast /= s;
    cfg.v6_unresponsive /= s;
    cfg.v6_medium_anycast_orgs /= s;
    cfg.v6_regional_anycast /= s;
    cfg.v6_backing_anycast /= s;
    cfg.as_graph.stub_count /= s;
  }
  // --world-scale multiplies the unicast/unresponsive bulk via
  // prefix-aggregated groups (WorldConfig::scale) — the opposite lever from
  // the --scale shrink divisor above; 1 (default) is byte-identical to the
  // historical generator.
  cfg.scale = static_cast<std::size_t>(
      std::max(args.get_int("world-scale", 1), 1L));
  return cfg;
}

int cmd_world(const Args& args) {
  const auto world = topo::World::generate(world_config(args));
  std::printf("seed %llu\n",
              static_cast<unsigned long long>(world.config().seed));
  std::printf("ASes: %zu  orgs: %zu  deployments: %zu  targets: %zu\n",
              world.as_graph().size(), world.orgs().size(),
              world.deployments().size(), world.targets().size());
  std::printf("census prefixes: %zu IPv4 /24s, %zu IPv6 /48s\n",
              world.prefix_count(net::IpVersion::kV4),
              world.prefix_count(net::IpVersion::kV6));

  std::map<topo::DeploymentKind, std::size_t> kinds;
  for (const auto& t : world.targets()) {
    if (t.representative) ++kinds[world.deployment(t.deployment).kind];
  }
  TextTable table({"Deployment kind", "Prefixes"});
  const char* names[] = {"unicast", "anycast (global)", "anycast (regional)",
                         "global-BGP unicast", "temporary anycast"};
  for (const auto& [kind, count] : kinds) {
    table.add_row({names[static_cast<int>(kind)],
                   with_commas(static_cast<long long>(count))});
  }
  std::printf("\n%s", table.render().c_str());
  return 0;
}

/// Canonical identity of a census run: every knob that changes the
/// simulated byte stream. Stamped into each checkpoint so --resume can
/// refuse a mismatched continuation instead of silently forking the
/// series. --sim-threads is deliberately absent (sharding is
/// byte-identical by contract), as are output paths.
std::string census_run_identity(const Args& args) {
  std::string id;
  id += "seed=" + args.get("seed", "42");
  id += ";scale=" + args.get("scale", "8");
  id += ";world-scale=" + args.get("world-scale", "1");
  id += ";rate=" + args.get("rate", "30000");
  id += args.has("v6") ? ";v6" : "";
  id += args.has("no-tcp") ? ";no-tcp" : "";
  id += args.has("no-dns") ? ";no-dns" : "";
  id += args.has("canary") ? ";canary" : "";
  id += ";faults=" + args.get("faults", "");
  id += ";fault-seed=" + args.get("fault-seed", "1");
  id += ";scenario=" + args.get("scenario", "");
  id += ";scenario-seed=" + args.get("scenario-seed", "0");
  return id;
}

int cmd_census(const Args& args) {
  const auto world = topo::World::generate(world_config(args));
  EventQueue events;
  topo::SimNetwork network(world, events);
  // --sim-threads N runs the simulator on N event-loop shards (target-side
  // processing parallelised; outputs stay byte-identical to --sim-threads 1).
  const long sim_threads = args.get_int("sim-threads", 1);
  if (sim_threads > 1) {
    network.enable_sharding(static_cast<std::size_t>(sim_threads));
  }
  core::Session session(network, platform::make_production_deployment(world));

  // Flight recorder: always on, bounded memory. The signal path means a
  // census killed mid-run (SIGTERM/SIGINT, or a crash) still dumps the
  // event tail before dying; `laces flightrec DUMP` decodes it.
  auto& frec = obs::FlightRecorder::global();
  frec.set_clock(&events);
  if (args.has("flightrec-capacity")) {
    frec.set_capacity(
        static_cast<std::size_t>(args.get_int("flightrec-capacity", 4096)));
  }
  const std::string frec_path =
      args.get("flightrec", args.get("out", "census-out") + "/flightrec.bin");
  // The signal handler can only write(2), not mkdir: make sure the dump
  // directory exists before arming.
  const auto frec_parent = std::filesystem::path(frec_path).parent_path();
  if (!frec_parent.empty()) std::filesystem::create_directories(frec_parent);
  obs::FlightRecorder::arm_signal_dump(frec_path);
  frec.record(obs::FrEvent::kMarker, 0,
              static_cast<std::uint64_t>(args.get_int("seed", 42)));

  census::PipelineConfig config;
  config.ipv6 = args.has("v6");
  config.tcp = !args.has("no-tcp");
  config.dns = !args.has("no-dns");
  config.canary = args.has("canary");
  config.targets_per_second =
      static_cast<double>(args.get_int("rate", 30000));
  census::Pipeline pipeline(network, session,
                            platform::make_ark(world, 80, 0x163),
                            platform::make_ark(world, 40, 0x118), config);

  // Optional deterministic fault injection: --faults '<spec>' layers
  // scheduled faults onto the control plane; --faults random generates a
  // plan from --fault-seed. The run stays a pure function of (seed, plan).
  std::optional<fault::FaultInjector> injector;
  if (args.has("faults")) {
    const auto seed =
        static_cast<std::uint64_t>(args.get_int("fault-seed", 1));
    const auto spec = args.get("faults", "");
    fault::FaultPlan plan;
    try {
      if (spec == "random" || spec == "true") {
        fault::GenerateOptions opts;
        opts.sites = static_cast<int>(session.worker_count());
        plan = fault::FaultPlan::generate(seed, opts);
      } else {
        plan = fault::FaultPlan::parse(spec, seed);
      }
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "laces census: %s\n", e.what());
      return 2;
    }
    injector.emplace(std::move(plan));
    injector->install(session);
    std::printf("fault plan (seed %llu):\n%s",
                static_cast<unsigned long long>(seed),
                injector->plan().describe().c_str());
  }

  // Optional operational-realism scenario: --scenario '<spec>' composes
  // platform churn and data-plane regimes (plus an embedded fault plan) on
  // one timeline; --scenario random generates one from --scenario-seed.
  // Installation is deferred past the --resume block so a resumed run can
  // skip lifecycle faults that healed before the checkpoint.
  std::optional<scenario::ScenarioRunner> scenario_runner;
  if (args.has("scenario")) {
    const auto sseed =
        static_cast<std::uint64_t>(args.get_int("scenario-seed", 0));
    const auto sspec = args.get("scenario", "");
    scenario::Scenario scen;
    try {
      if (sspec == "random" || sspec == "true") {
        scenario::GenerateOptions opts;
        opts.sites = static_cast<int>(session.worker_count());
        scen = scenario::Scenario::generate(sseed, opts);
      } else {
        scen = scenario::Scenario::parse(sspec, sseed);
      }
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "laces census: %s\n", e.what());
      return 2;
    }
    scenario_runner.emplace(std::move(scen), session);
    std::printf("scenario (seed %llu):\n%s",
                static_cast<unsigned long long>(sseed),
                scenario_runner->scenario().describe().c_str());
  }

  const auto out_dir = std::filesystem::path(args.get("out", "census-out"));
  std::filesystem::create_directories(out_dir);

  // Optional persistent archive (laces_store): every completed day becomes
  // a columnar segment plus a resume checkpoint. --resume restores the
  // checkpointed clock/pipeline/longitudinal state and continues the series
  // at the next day; --days is the total series length in both modes.
  std::optional<store::ArchiveWriter> archive;
  census::LongitudinalStore longitudinal;
  long start_day = 1;
  SimTime resumed_clock = SimTime::epoch();
  const std::string run_identity = census_run_identity(args);
  if (args.has("archive")) {
    try {
      archive.emplace(std::filesystem::path(args.get("archive", "archive")));
      if (args.has("resume")) {
        store::ArchiveReader reader(archive->dir());
        if (!reader.has_checkpoint()) {
          std::fprintf(stderr,
                       "laces census: --resume but %s has no checkpoint\n",
                       archive->dir().string().c_str());
          return 2;
        }
        const store::Checkpoint cp = reader.load_checkpoint();
        if (!cp.run_config.empty() && cp.run_config != run_identity) {
          std::fprintf(stderr,
                       "laces census: --resume refused: the archive was "
                       "written with different options (archived '%s', "
                       "requested '%s')\n",
                       cp.run_config.c_str(), run_identity.c_str());
          return 2;
        }
        // Restore the simulated clock first: schedule_at clamps to now(),
        // so draining one no-op parked at the checkpointed time advances
        // the queue exactly there.
        events.schedule_at(SimTime(cp.sim_time_ns), [] {});
        network.run_events();
        pipeline.restore_state(cp.pipeline);
        for (std::size_t i = 0;
             i < cp.worker_rng.size() && i < session.worker_count(); ++i) {
          session.worker(i).restore_rng_state(cp.worker_rng[i]);
        }
        obs::Tracer::global().set_next_id(cp.next_span_id);
        longitudinal =
            census::LongitudinalStore::from_snapshot(cp.longitudinal);
        start_day = static_cast<long>(cp.last_day) + 1;
        resumed_clock = SimTime(cp.sim_time_ns);
        std::printf("resuming after day %u (sim clock %.1fs, %zu healthy "
                    "days archived)\n",
                    cp.last_day, SimTime(cp.sim_time_ns).to_seconds(),
                    longitudinal.days());
      } else if (!archive->manifest().entries.empty()) {
        std::fprintf(stderr,
                     "laces census: archive %s already holds days up to %u; "
                     "pass --resume to continue it\n",
                     archive->dir().string().c_str(),
                     archive->manifest().last_day());
        return 2;
      }
    } catch (const store::ArchiveError& e) {
      std::fprintf(stderr, "laces census: %s\n", e.what());
      return 1;
    }
  }

  // Lifecycle faults that fired (and healed) before the checkpoint are in
  // the resumed run's past and must not replay.
  if (scenario_runner) scenario_runner->install(resumed_clock);

  const long days = args.get_int("days", 1);
  for (long day = start_day; day <= days; ++day) {
    if (scenario_runner) {
      scenario_runner->begin_day(static_cast<std::uint32_t>(day));
    }
    const auto daily = pipeline.run_day(static_cast<std::uint32_t>(day));
    if (scenario_runner) scenario_runner->end_day();
    const auto path =
        out_dir / ("census-day-" + std::to_string(day) + ".csv");
    std::ofstream file(path);
    census::write_census(file, daily);
    std::string health = "ok";
    if (daily.degraded) {
      health = "DEGRADED (lost_sites=" + std::to_string(daily.lost_sites) +
               ", canary_alarms=" + std::to_string(daily.canary_alarms) + ")";
    }
    std::printf("day %ld [%s]: %zu ATs, %zu GCD-confirmed, published %zu -> "
                "%s (probes: %llu anycast + %llu GCD)\n",
                day, health.c_str(), daily.anycast_targets.size(),
                daily.gcd_confirmed_prefixes().size(),
                daily.published_prefixes().size(), path.string().c_str(),
                static_cast<unsigned long long>(daily.anycast_probes_sent),
                static_cast<unsigned long long>(daily.gcd_probes_sent));
    if (archive) {
      try {
        longitudinal.add(daily);
        const auto& entry = archive->append(daily);
        store::Checkpoint cp;
        cp.last_day = daily.day;
        cp.sim_time_ns = events.now().ns();
        cp.next_span_id = obs::Tracer::global().next_id();
        cp.pipeline = pipeline.state();
        cp.longitudinal = longitudinal.snapshot();
        cp.run_config = run_identity;
        cp.worker_rng.reserve(session.worker_count());
        for (std::size_t i = 0; i < session.worker_count(); ++i) {
          cp.worker_rng.push_back(session.worker(i).rng_state());
        }
        archive->write_checkpoint(cp);
        frec.record(obs::FrEvent::kCheckpoint, 0, daily.day);
        std::printf("  archived %s (%llu bytes, csv %llu, sha256 %.12s...)\n",
                    entry.file.c_str(),
                    static_cast<unsigned long long>(entry.segment_bytes),
                    static_cast<unsigned long long>(entry.csv_bytes),
                    entry.digest_hex.c_str());
      } catch (const store::ArchiveError& e) {
        std::fprintf(stderr, "laces census: %s\n", e.what());
        return 1;
      }
    }
  }

  if (archive && longitudinal.days() + longitudinal.degraded_days() > 0) {
    const auto anycast = longitudinal.anycast_based_stability();
    const auto gcd = longitudinal.gcd_stability();
    std::printf("longitudinal (%zu healthy days, %zu degraded): "
                "anycast-based union=%zu every_day=%zu; "
                "gcd union=%zu every_day=%zu\n",
                anycast.days, anycast.degraded_days, anycast.union_size,
                anycast.every_day, gcd.union_size, gcd.every_day);
  }

  if (injector && !injector->applied().empty()) {
    std::printf("faults applied:\n");
    for (const auto& line : injector->applied()) {
      std::printf("  %s\n", line.c_str());
    }
  }

  if (scenario_runner) {
    std::printf("scenario: %llu regime applications, %llu worker outages\n",
                static_cast<unsigned long long>(
                    scenario_runner->regimes_applied()),
                static_cast<unsigned long long>(
                    scenario_runner->worker_outages()));
    const auto* sinj = scenario_runner->injector();
    if (sinj != nullptr && !sinj->applied().empty()) {
      std::printf("scenario faults applied:\n");
      for (const auto& line : sinj->applied()) {
        std::printf("  %s\n", line.c_str());
      }
    }
  }

  frec.record(obs::FrEvent::kMarker, 1, static_cast<std::uint64_t>(days));

  // Run telemetry: optional machine-readable exports plus the operator
  // report on stdout.
  const auto metrics = obs::Registry::global().snapshot();
  const auto spans = obs::Tracer::global().snapshot();
  int status = 0;

  // Post-mortem capture: any sign of trouble — a watchdog fire, an aborted
  // or degraded measurement, a degraded day — dumps the flight recorder,
  // as does an explicit --flightrec FILE.
  const bool troubled =
      metrics.value("laces_orchestrator_watchdog_fires_total") > 0 ||
      metrics.value("laces_orchestrator_measurements_aborted_total") > 0 ||
      metrics.value("laces_orchestrator_measurements_degraded_total") > 0 ||
      metrics.value("laces_census_degraded_days_total") > 0;
  if (troubled || args.has("flightrec")) {
    if (frec.dump(frec_path)) {
      std::printf("flight recorder dump: %s (%llu events recorded, %llu "
                  "overwritten)\n",
                  frec_path.c_str(),
                  static_cast<unsigned long long>(frec.recorded()),
                  static_cast<unsigned long long>(frec.overwritten()));
    } else {
      std::fprintf(stderr, "laces census: cannot write %s\n",
                   frec_path.c_str());
      status = 1;
    }
  }
  const auto export_to = [&status](const std::string& path, auto writer) {
    std::ofstream out(path);
    if (out) writer(out);
    if (!out) {
      std::fprintf(stderr, "laces census: cannot write %s\n", path.c_str());
      status = 1;
    }
  };
  if (args.has("metrics-out")) {
    export_to(args.get("metrics-out", "metrics.prom"),
              [&metrics](std::ofstream& out) {
                obs::write_prometheus(out, metrics);
              });
  }
  if (args.has("trace-out")) {
    export_to(args.get("trace-out", "trace.jsonl"),
              [&spans](std::ofstream& out) {
                obs::write_trace_jsonl(out, spans);
              });
  }
  std::printf("\n%s", obs::render_run_report(metrics, spans).c_str());
  return status;
}

int cmd_probe(const Args& args) {
  const auto prefix_arg = args.get("prefix", "");
  const auto parsed = net::Ipv4Prefix::parse(prefix_arg);
  if (!parsed) {
    std::fprintf(stderr, "laces probe: --prefix A.B.C.0/24 required\n");
    return 2;
  }
  const auto world = topo::World::generate(world_config(args));
  EventQueue events;
  topo::SimNetwork network(world, events);
  network.set_day(static_cast<std::uint32_t>(args.get_int("day", 1)));
  const auto deployment = platform::make_production_deployment(world);
  core::Session session(network, deployment);

  // Locate the representative address inside the prefix.
  net::IpAddress target;
  bool found = false;
  for (const auto& t : world.targets()) {
    if (t.representative && t.address.is_v4() &&
        parsed->contains(t.address.v4())) {
      target = t.address;
      found = true;
      break;
    }
  }
  if (!found) {
    std::printf("%s: no allocated address in the simulated world\n",
                prefix_arg.c_str());
    return 1;
  }

  // Anycast-based measurement of the single target.
  core::MeasurementSpec spec;
  spec.id = 0x9b0;
  spec.targets_per_second = 100;
  const auto results = session.run(spec, {target});
  const auto classification = core::classify_anycast(results, {target});
  const auto& obs = classification.at(net::Prefix::of(target));
  std::printf("anycast-based: %s (%zu receiving VPs, %u responses)\n",
              std::string(core::to_string(obs.verdict)).c_str(),
              obs.vp_count(), obs.responses);

  // GCD with enumeration and geolocation.
  const auto ark = platform::make_ark(world, 120, 0x163);
  const auto latency = platform::measure_latency(network, ark, {target});
  const auto gcd_cls =
      gcd::classify_gcd(gcd::make_analyzer(ark), latency, {target});
  const auto& gcd_res = gcd_cls.at(net::Prefix::of(target));
  std::printf("GCD:           %s (%zu sites)\n",
              std::string(gcd::to_string(gcd_res.verdict)).c_str(),
              gcd_res.site_count());
  for (const auto& site : gcd_res.sites) {
    if (site.city) {
      const auto& c = geo::city(*site.city);
      std::printf("  site near %s/%s (disc %.0f km)\n",
                  std::string(c.name).c_str(), std::string(c.country).c_str(),
                  site.radius_km);
    }
  }

  // Traceroute from three vantage sites.
  for (const auto site_index : {0u, 10u, 20u}) {
    const auto& site = deployment.sites[site_index];
    const auto trace = platform::traceroute(world, site.attach, target,
                                            network.day());
    std::printf("traceroute from %-12s: %zu AS hops", site.name.c_str(),
                trace.hops.size());
    if (trace.serving_city) {
      std::printf(", served at %s",
                  std::string(geo::city(*trace.serving_city).name).c_str());
    }
    std::printf("%s\n", trace.reached ? "" : " (no reply)");
  }
  return 0;
}

int cmd_catchment(const Args& args) {
  const auto world = topo::World::generate(world_config(args));
  EventQueue events;
  topo::SimNetwork network(world, events);
  network.set_day(1);
  const auto deployment = platform::make_production_deployment(world);
  core::Session session(network, deployment);

  const auto hitlist = hitlist::build_ping_hitlist(world, net::IpVersion::kV4);
  core::MeasurementSpec spec;
  spec.id = 0xca7;
  spec.targets_per_second = 30000;
  spec.worker_offset = SimDuration::seconds(0);
  const auto results = session.run(spec, hitlist.addresses());

  std::map<net::WorkerId, std::size_t> sizes;
  std::unordered_map<net::Prefix, bool, net::PrefixHash> seen;
  for (const auto& rec : results.records) {
    if (seen.emplace(net::Prefix::of(rec.target), true).second) {
      ++sizes[rec.rx_worker];
    }
  }
  TextTable table({"Site", "/24s", "Share"});
  for (const auto& [worker, count] : sizes) {
    table.add_row({deployment.sites[worker - 1].name,
                   with_commas(static_cast<long long>(count)),
                   pct(double(count), double(seen.size()))});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_query(const Args& args) {
  if (!args.has("archive")) {
    std::fprintf(stderr, "laces query: --archive DIR required\n");
    return 2;
  }
  const bool json = args.has("json");
  // Every section buffers here and reaches stdout only after the whole
  // query succeeded. A day segment failing its SHA-256 footer check
  // mid-query therefore yields exactly one line-anchored stderr error and
  // a nonzero exit — never partial output with an error tangled into it.
  std::ostringstream out;
  try {
    store::ArchiveReader reader(
        std::filesystem::path(args.get("archive", "archive")));
    store::QueryEngine query(reader);
    bool did_something = false;

    if (args.has("verify")) {
      did_something = true;
      const auto problems = reader.verify();
      if (!problems.empty()) {
        for (const auto& p : problems) {
          std::fprintf(stderr, "laces query: %s\n", p.c_str());
        }
        return 1;
      }
      if (!json) {
        out << "archive verifies clean ("
            << reader.manifest().entries.size() << " days)\n";
      }
    }
    if (args.has("summary")) {
      did_something = true;
      out << (json ? serve::json_summary(query.summary())
                   : store::render_summary(query.summary()));
    }
    if (args.has("stability")) {
      did_something = true;
      out << (json ? serve::json_stability(query.stability())
                   : store::render_stability(query.stability()));
    }
    if (args.has("prefix")) {
      did_something = true;
      const auto parsed = net::Ipv4Prefix::parse(args.get("prefix", ""));
      if (!parsed) {
        std::fprintf(stderr, "laces query: --prefix A.B.C.0/24 malformed\n");
        return 2;
      }
      const net::Prefix prefix(*parsed);
      const auto history = query.history(prefix);
      out << (json ? serve::json_history(prefix, history)
                   : store::render_history(prefix, history));
    }
    if (args.has("intermittent")) {
      did_something = true;
      const auto anycast = query.intermittent_anycast_based();
      const auto gcd = query.intermittent_gcd();
      if (json) {
        out << serve::json_intermittent(anycast, gcd);
      } else {
        out << "intermittent anycast-based (" << anycast.size() << "):\n";
        for (const auto& p : anycast) out << "  " << p.to_string() << "\n";
        out << "intermittent gcd (" << gcd.size() << "):\n";
        for (const auto& p : gcd) out << "  " << p.to_string() << "\n";
      }
    }
    if (args.has("export-day")) {
      did_something = true;
      const auto day = static_cast<std::uint32_t>(args.get_int("export-day", 0));
      std::ostringstream csv;
      reader.export_csv(day, csv);
      if (json) {
        const serve::Response response =
            serve::ExportDayResponse{day, csv.str()};
        out << serve::json_response(response);
      } else {
        out << csv.str();
      }
    }

    if (!did_something) {
      // Default to the manifest-only summary.
      out << (json ? serve::json_summary(query.summary())
                   : store::render_summary(query.summary()));
    }
    std::fputs(out.str().c_str(), stdout);
    return 0;
  } catch (const store::ArchiveError& e) {
    std::fprintf(stderr, "laces query: %s\n", e.what());
    return 1;
  }
}

/// Request-line grammar shared by `laces serve --script` and
/// `laces relay --script`:
///   summary | stability | intermittent | history A.B.C.0/24 | export-day N
///   | stats | mesh-stats | latency | trace-tail N | flightrec-tail N
std::optional<serve::Request> parse_request_line(const std::string& line,
                                                std::string* error) {
  std::istringstream in(line);
  std::string verb;
  in >> verb;
  if (verb == "summary") return serve::Request{serve::SummaryRequest{}};
  if (verb == "stability") return serve::Request{serve::StabilityRequest{}};
  if (verb == "intermittent") {
    return serve::Request{serve::IntermittentRequest{}};
  }
  if (verb == "history" || verb == "prefix") {
    std::string text;
    in >> text;
    const auto parsed = net::Ipv4Prefix::parse(text);
    if (!parsed) {
      *error = verb + ": malformed prefix '" + text + "'";
      return std::nullopt;
    }
    return serve::Request{serve::HistoryRequest{net::Prefix(*parsed)}};
  }
  if (verb == "export-day") {
    long day = -1;
    in >> day;
    if (day < 0) {
      *error = "export-day: day number required";
      return std::nullopt;
    }
    return serve::Request{
        serve::ExportDayRequest{static_cast<std::uint32_t>(day)}};
  }
  if (verb == "stats") return serve::Request{serve::StatsRequest{}};
  if (verb == "mesh-stats") return serve::Request{serve::MeshStatsRequest{}};
  if (verb == "latency") return serve::Request{serve::LatencyRequest{}};
  if (verb == "trace-tail" || verb == "flightrec-tail") {
    long max = 0;
    in >> max;  // optional; 0 = everything retained
    if (max < 0) max = 0;
    if (verb == "trace-tail") {
      return serve::Request{
          serve::TraceTailRequest{static_cast<std::uint32_t>(max)}};
    }
    return serve::Request{
        serve::FlightRecTailRequest{static_cast<std::uint32_t>(max)}};
  }
  *error = "unknown request '" + verb + "'";
  return std::nullopt;
}

serve::ServerConfig server_config(const Args& args) {
  serve::ServerConfig config;
  config.threads = static_cast<std::size_t>(args.get_int("threads", 4));
  config.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue", 256));
  config.max_inflight_per_connection =
      static_cast<std::size_t>(args.get_int("inflight", 64));
  config.cache_shards =
      static_cast<std::size_t>(args.get_int("cache-shards", 8));
  config.cache_entries_per_shard =
      static_cast<std::size_t>(args.get_int("cache-entries", 256));
  config.key = args.get("key", config.key);
  config.retry_after_ms =
      static_cast<std::uint32_t>(args.get_int("retry-after-ms", 50));
  return config;
}

int cmd_serve(const Args& args) {
  if (!args.has("archive")) {
    std::fprintf(stderr, "laces serve: --archive DIR required\n");
    return 2;
  }

  // Collect the request script: one request per line, '#' and blank lines
  // skipped. Without --script, a default tour of the cheap queries runs.
  std::vector<std::string> lines;
  if (args.has("script")) {
    const auto path = args.get("script", "");
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "laces serve: cannot open script %s\n",
                   path.c_str());
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  } else {
    lines = {"summary", "stability", "intermittent"};
  }
  std::vector<serve::Request> script;
  for (const auto& line : lines) {
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::string error;
    const auto request = parse_request_line(line.substr(first), &error);
    if (!request) {
      std::fprintf(stderr, "laces serve: %s\n", error.c_str());
      return 2;
    }
    script.push_back(*request);
  }
  if (script.empty()) {
    std::fprintf(stderr, "laces serve: script has no requests\n");
    return 2;
  }

  try {
    store::ArchiveReader reader(
        std::filesystem::path(args.get("archive", "archive")),
        static_cast<std::size_t>(args.get_int("reader-cache", 8)));
    const auto config = server_config(args);
    serve::Server server(reader, config);

    // --repeat replays the script; repeated rounds are answered from the
    // response cache (visible in the stats line below).
    const long repeat = args.get_int("repeat", 1);
    const auto clients = static_cast<std::size_t>(args.get_int("clients", 2));
    std::vector<std::shared_ptr<serve::Connection>> connections;
    for (std::size_t i = 0; i < std::max<std::size_t>(clients, 1); ++i) {
      connections.push_back(server.connect());
    }

    int status = 0;
    std::uint64_t request_id = 0;
    for (long round = 0; round < std::max(repeat, 1L); ++round) {
      // Submit the whole round concurrently, then print responses in
      // script order so output is deterministic.
      std::vector<std::future<std::vector<std::uint8_t>>> pending;
      pending.reserve(script.size());
      for (const auto& request : script) {
        auto& connection = connections[request_id % connections.size()];
        pending.push_back(connection->submit(
            serve::encode_frame(config.key, serve::FrameKind::kRequest,
                                ++request_id, serve::encode_request(request))));
      }
      for (auto& future : pending) {
        const auto frame = serve::decode_frame(config.key, future.get());
        const auto response = serve::decode_response(frame.payload);
        if (std::holds_alternative<serve::ErrorResponse>(response)) {
          status = 1;
        }
        std::fputs(serve::json_response(response).c_str(), stdout);
      }
    }
    server.drain();
    std::fprintf(stderr,
                 "laces serve: executed=%llu cache_hits=%llu shed=%llu "
                 "auth_failures=%llu\n",
                 static_cast<unsigned long long>(server.requests_executed()),
                 static_cast<unsigned long long>(server.cache_hits()),
                 static_cast<unsigned long long>(server.requests_shed()),
                 static_cast<unsigned long long>(server.auth_failures()));

    // Served workloads export the same telemetry artifacts as `laces
    // census`: Prometheus metrics and the span buffer.
    if (args.has("metrics-out")) {
      const auto path = args.get("metrics-out", "metrics.prom");
      std::ofstream out(path);
      if (out) obs::write_prometheus(out, obs::Registry::global().snapshot());
      if (!out) {
        std::fprintf(stderr, "laces serve: cannot write %s\n", path.c_str());
        status = 1;
      }
    }
    if (args.has("trace-out")) {
      const auto path = args.get("trace-out", "trace.jsonl");
      std::ofstream out(path);
      if (out) {
        obs::write_trace_jsonl(out, obs::Tracer::global().snapshot());
      }
      if (!out) {
        std::fprintf(stderr, "laces serve: cannot write %s\n", path.c_str());
        status = 1;
      }
    }
    return status;
  } catch (const store::ArchiveError& e) {
    std::fprintf(stderr, "laces serve: %s\n", e.what());
    return 1;
  } catch (const serve::ProtocolError& e) {
    std::fprintf(stderr, "laces serve: %s\n", e.what());
    return 1;
  }
}

int cmd_bench_serve(const Args& args) {
  if (!args.has("archive")) {
    std::fprintf(stderr, "laces bench-serve: --archive DIR required\n");
    return 2;
  }
  try {
    store::ArchiveReader reader(
        std::filesystem::path(args.get("archive", "archive")),
        static_cast<std::size_t>(args.get_int("reader-cache", 8)));
    if (reader.manifest().entries.empty()) {
      std::fprintf(stderr, "laces bench-serve: archive is empty\n");
      return 2;
    }
    serve::Server server(reader, server_config(args));

    // History requests draw from the first day's published prefixes;
    // export requests draw from every archived day.
    const auto first_day = reader.manifest().entries.front().day;
    const auto prefixes = reader.load_day(first_day)->published_prefixes();
    std::vector<std::uint32_t> days;
    for (const auto& entry : reader.manifest().entries) {
      days.push_back(entry.day);
    }

    serve::LoadGenConfig load;
    load.clients = static_cast<std::size_t>(args.get_int("clients", 4));
    load.requests_per_client =
        static_cast<std::size_t>(args.get_int("requests", 2000));
    load.target_qps = std::stod(args.get("qps", "0"));
    load.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

    const auto report = serve::run_load(server, prefixes, days, load);
    server.drain();
    std::fputs(report.describe().c_str(), stdout);
    if (args.has("out")) {
      const auto path = args.get("out", "BENCH_serve.json");
      std::ofstream out(path);
      out << report.to_json();
      if (!out) {
        std::fprintf(stderr, "laces bench-serve: cannot write %s\n",
                     path.c_str());
        return 1;
      }
      std::printf("wrote %s\n", path.c_str());
    }
    return 0;
  } catch (const store::ArchiveError& e) {
    std::fprintf(stderr, "laces bench-serve: %s\n", e.what());
    return 1;
  }
}

/// `laces flightrec DUMP`: decode a flight-recorder dump to JSONL on
/// stdout (one event per line, merged deterministic order).
int cmd_flightrec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "laces flightrec: cannot open %s\n", path.c_str());
    return 2;
  }
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  try {
    const auto events = obs::decode_flight_dump(bytes);
    std::ostringstream out;
    obs::write_flight_jsonl(out, events);
    std::fputs(out.str().c_str(), stdout);
    std::fflush(stdout);
    return 0;
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "laces flightrec: %s\n", e.what());
    return 1;
  }
}

/// Renders one relay's MeshStatsResponse: a counters line plus per-peer
/// and per-subscription tables — the human form of the in-band
/// `mesh-stats` answer.
void print_mesh_stats(const serve::MeshStatsResponse& mesh) {
  std::printf(
      "mesh node %llu '%s': feed=(day %u, seq %u) published=%llu "
      "pushed=%llu dropped=%llu dup=%llu\n"
      "  forwards: seen=%llu refused=%llu answered=%llu "
      "negative_cache_hits=%llu\n",
      static_cast<unsigned long long>(mesh.node_id), mesh.name.c_str(),
      mesh.feed_day, mesh.feed_seq,
      static_cast<unsigned long long>(mesh.deltas_published),
      static_cast<unsigned long long>(mesh.deltas_forwarded),
      static_cast<unsigned long long>(mesh.deltas_dropped),
      static_cast<unsigned long long>(mesh.duplicate_deltas),
      static_cast<unsigned long long>(mesh.forwards_seen),
      static_cast<unsigned long long>(mesh.forward_dups_suppressed),
      static_cast<unsigned long long>(mesh.forwards_answered),
      static_cast<unsigned long long>(mesh.negative_cache_hits));
  if (!mesh.peers.empty()) {
    TextTable peers({"Peer", "Node", "Ver", "Fwd out", "Fwd in", "Delta out",
                     "Delta in"});
    for (const auto& p : mesh.peers) {
      peers.add_row({p.name, std::to_string(p.node_id),
                     std::to_string(p.version),
                     with_commas(static_cast<long long>(p.forwards_sent)),
                     with_commas(static_cast<long long>(p.forwards_received)),
                     with_commas(static_cast<long long>(p.deltas_sent)),
                     with_commas(static_cast<long long>(p.deltas_received))});
    }
    std::printf("%s", peers.render().c_str());
  }
  if (!mesh.subscriptions.empty()) {
    TextTable subs({"Sub", "Subscriber", "Fam", "Prio", "Prefixes", "Acked",
                    "Lag", "Pushed", "Dropped"});
    for (const auto& s : mesh.subscriptions) {
      subs.add_row(
          {std::to_string(s.id), s.subscriber,
           s.family == 0 ? "both" : std::to_string(s.family),
           std::to_string(s.priority),
           s.prefix_count == 0 ? "all" : std::to_string(s.prefix_count),
           "d" + std::to_string(s.acked_day) + "#" +
               std::to_string(s.acked_seq),
           std::to_string(s.lag_days),
           with_commas(static_cast<long long>(s.chunks_pushed)),
           with_commas(static_cast<long long>(s.chunks_dropped))});
    }
    std::printf("%s", subs.render().c_str());
  }
}

/// The in-process relay chain `laces relay` and `laces stat --mesh` share:
/// node 1 is the origin (co-located server, archive replay, an
/// ArchiveWriter publisher hook), nodes 2..N are pure relays that
/// auto-subscribe hop by hop at connect time — so building the chain
/// already replays the archived feed to its tail.
struct MeshChain {
  std::unique_ptr<store::ArchiveWriter> writer;  // outlives the relays
  std::vector<std::unique_ptr<mesh::Relay>> relays;
  mesh::Relay& origin() { return *relays.front(); }
  mesh::Relay& tail() { return *relays.back(); }
};

std::optional<MeshChain> build_mesh_chain(const std::filesystem::path& dir,
                                          serve::Server* origin_server,
                                          const std::string& key, long count,
                                          std::string* error) {
  MeshChain chain;
  mesh::RelayConfig base;
  base.key = key;
  {
    auto rc = base;
    rc.node_id = 1;
    rc.name = "origin";
    chain.relays.push_back(
        std::make_unique<mesh::Relay>(rc, origin_server, dir));
  }
  chain.writer = std::make_unique<store::ArchiveWriter>(dir);
  chain.origin().attach_publisher(*chain.writer);
  for (long i = 2; i <= std::max(count, 1L); ++i) {
    auto rc = base;
    rc.node_id = static_cast<std::uint64_t>(i);
    rc.name = "relay-" + std::to_string(i);
    chain.relays.push_back(std::make_unique<mesh::Relay>(rc));
    const auto link = mesh::connect(*chain.relays[static_cast<std::size_t>(i) - 2],
                                    *chain.relays[static_cast<std::size_t>(i) - 1]);
    if (!link.ok) {
      *error = "connect " + chain.relays[static_cast<std::size_t>(i) - 2]->name() +
               " <-> " + chain.relays[static_cast<std::size_t>(i) - 1]->name() +
               ": " + link.message;
      return std::nullopt;
    }
  }
  return chain;
}

/// `laces stat`: live introspection client. Starts a server over the
/// archive, drives background load through it, and polls the in-band
/// admin endpoint — the same authenticated StatsRequest/LatencyRequest
/// frames any remote client would send — rendering each snapshot.
int cmd_stat(const Args& args) {
  if (!args.has("archive")) {
    std::fprintf(stderr, "laces stat: --archive DIR required\n");
    return 2;
  }
  try {
    store::ArchiveReader reader(
        std::filesystem::path(args.get("archive", "archive")),
        static_cast<std::size_t>(args.get_int("reader-cache", 8)));
    if (reader.manifest().entries.empty()) {
      std::fprintf(stderr, "laces stat: archive is empty\n");
      return 2;
    }
    const auto config = server_config(args);
    serve::Server server(reader, config);

    // --mesh N co-locates a relay chain: node 1 registers itself as this
    // server's mesh-stats provider, nodes 2..N subscribe hop by hop, and
    // a tail follower consumes the feed — so the in-band `mesh-stats`
    // answer below carries real peers, subscriptions and cursors.
    std::optional<MeshChain> chain;
    std::unique_ptr<mesh::CensusFollower> follower;
    if (const long mesh_relays = args.get_int("mesh", 0); mesh_relays > 0) {
      std::string error;
      chain = build_mesh_chain(
          std::filesystem::path(args.get("archive", "archive")), &server,
          config.key, mesh_relays, &error);
      if (!chain) {
        std::fprintf(stderr, "laces stat: %s\n", error.c_str());
        return 1;
      }
      follower = std::make_unique<mesh::CensusFollower>(chain->tail());
    }

    const auto first_day = reader.manifest().entries.front().day;
    const auto prefixes = reader.load_day(first_day)->published_prefixes();
    std::vector<std::uint32_t> days;
    for (const auto& entry : reader.manifest().entries) {
      days.push_back(entry.day);
    }

    serve::LoadGenConfig load;
    load.clients = static_cast<std::size_t>(args.get_int("clients", 2));
    load.requests_per_client =
        static_cast<std::size_t>(args.get_int("requests", 500));
    load.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    std::thread load_thread(
        [&server, &prefixes, &days, load] {
          serve::run_load(server, prefixes, days, load);
        });

    const bool json = args.has("json");
    const long polls = std::max(args.get_int("polls", 3), 1L);
    const auto interval =
        std::chrono::milliseconds(args.get_int("interval-ms", 100));
    auto connection = server.connect();
    std::uint64_t request_id = 0;
    const auto ask = [&](const serve::Request& request) {
      const auto frame = connection->call(serve::encode_frame(
          config.key, serve::FrameKind::kRequest, ++request_id,
          serve::encode_request(request)));
      return serve::decode_response(
          serve::decode_frame(config.key, frame).payload);
    };

    for (long poll = 0; poll < polls; ++poll) {
      const auto stats_resp = ask(serve::Request{serve::StatsRequest{}});
      const auto latency_resp = ask(serve::Request{serve::LatencyRequest{}});
      if (json) {
        std::fputs(serve::json_response(stats_resp).c_str(), stdout);
        std::fputs(serve::json_response(latency_resp).c_str(), stdout);
      } else {
        const auto& s =
            std::get<serve::StatsResponse>(stats_resp).stats;
        std::printf(
            "poll %ld: executed=%llu shed=%llu auth_failures=%llu "
            "queue=%u/%u workers=%u spans=%u%s\n",
            poll + 1, static_cast<unsigned long long>(s.requests_executed),
            static_cast<unsigned long long>(s.requests_shed),
            static_cast<unsigned long long>(s.auth_failures), s.queue_depth,
            s.queue_capacity, s.workers, s.active_spans,
            s.draining ? " DRAINING" : "");
        std::printf(
            "  caches: response %llu/%llu hits, segment %llu/%llu hits; "
            "flightrec %llu events (%llu overwritten)\n",
            static_cast<unsigned long long>(s.response_cache_hits),
            static_cast<unsigned long long>(s.response_cache_hits +
                                            s.response_cache_misses),
            static_cast<unsigned long long>(s.segment_cache_hits),
            static_cast<unsigned long long>(s.segment_cache_hits +
                                            s.segment_cache_misses),
            static_cast<unsigned long long>(s.flightrec_recorded),
            static_cast<unsigned long long>(s.flightrec_overwritten));
        TextTable table({"Stage", "Count", "p50 us", "p99 us", "p999 us",
                         "max us"});
        const auto& stages =
            std::get<serve::LatencyResponse>(latency_resp).stages;
        for (const auto& st : stages) {
          char p50[32], p99[32], p999[32], mx[32];
          std::snprintf(p50, sizeof p50, "%.1f", st.p50_us);
          std::snprintf(p99, sizeof p99, "%.1f", st.p99_us);
          std::snprintf(p999, sizeof p999, "%.1f", st.p999_us);
          std::snprintf(mx, sizeof mx, "%.1f", st.max_us);
          table.add_row({st.stage,
                         with_commas(static_cast<long long>(st.count)), p50,
                         p99, p999, mx});
        }
        std::printf("%s", table.render().c_str());
      }
      if (poll + 1 < polls) std::this_thread::sleep_for(interval);
    }

    // Per-peer mesh state over the same in-band admin path. A plain
    // archive server answers with the empty snapshot.
    const auto mesh_resp = ask(serve::Request{serve::MeshStatsRequest{}});
    if (json) {
      std::fputs(serve::json_response(mesh_resp).c_str(), stdout);
    } else {
      const auto& mesh = std::get<serve::MeshStatsResponse>(mesh_resp);
      if (mesh.node_id == 0 && mesh.peers.empty()) {
        std::printf("mesh: no relay attached (run with --mesh N)\n");
      } else {
        print_mesh_stats(mesh);
      }
    }

    // Final poll: the recent trace spans and flight-recorder tail.
    const auto trace_resp =
        ask(serve::Request{serve::TraceTailRequest{
            static_cast<std::uint32_t>(args.get_int("spans", 10))}});
    const auto frec_resp =
        ask(serve::Request{serve::FlightRecTailRequest{
            static_cast<std::uint32_t>(args.get_int("events", 20))}});
    if (json) {
      std::fputs(serve::json_response(trace_resp).c_str(), stdout);
      std::fputs(serve::json_response(frec_resp).c_str(), stdout);
    } else {
      const auto& tail = std::get<serve::TraceTailResponse>(trace_resp);
      std::printf("trace tail (%zu spans, %llu dropped):\n",
                  tail.spans.size(),
                  static_cast<unsigned long long>(tail.dropped));
      for (const auto& span : tail.spans) {
        std::printf("  #%llu %s [%lld..%lld]\n",
                    static_cast<unsigned long long>(span.id),
                    span.name.c_str(), static_cast<long long>(span.start_ns),
                    static_cast<long long>(span.end_ns));
      }
      const auto& events =
          std::get<serve::FlightRecTailResponse>(frec_resp).events;
      std::printf("flight recorder tail (%zu events):\n", events.size());
      for (const auto& e : events) {
        std::printf("  %s code=%u a=%llu b=%u\n",
                    std::string(obs::to_string(
                                    static_cast<obs::FrEvent>(e.kind)))
                        .c_str(),
                    e.code, static_cast<unsigned long long>(e.a), e.b);
      }
    }

    load_thread.join();
    server.drain();
    return 0;
  } catch (const store::ArchiveError& e) {
    std::fprintf(stderr, "laces stat: %s\n", e.what());
    return 1;
  } catch (const serve::ProtocolError& e) {
    std::fprintf(stderr, "laces stat: %s\n", e.what());
    return 1;
  }
}

/// `laces relay`: in-process mesh demo. Chains N relays over an archive,
/// replays the census delta feed down the chain (origin -> tail), proves
/// the tail reconstructs every archived day byte-identically, then drives
/// scripted queries into the TAIL relay — each relay asks its upstream
/// until the origin's server answers — and dumps per-relay mesh stats.
int cmd_relay(const Args& args) {
  if (!args.has("archive")) {
    std::fprintf(stderr, "laces relay: --archive DIR required\n");
    return 2;
  }
  const std::filesystem::path dir(args.get("archive", "archive"));
  try {
    store::ArchiveReader reader(
        dir, static_cast<std::size_t>(args.get_int("reader-cache", 8)));
    if (reader.manifest().entries.empty()) {
      std::fprintf(stderr, "laces relay: archive is empty\n");
      return 2;
    }
    const auto config = server_config(args);
    serve::Server server(reader, config);

    const long count = std::max(args.get_int("relays", 3), 1L);
    std::string error;
    auto chain = build_mesh_chain(dir, &server, config.key, count, &error);
    if (!chain) {
      std::fprintf(stderr, "laces relay: %s\n", error.c_str());
      return 1;
    }
    mesh::CensusFollower follower(chain->tail());

    // Byte-identity audit: the feed that reached the tail through
    // count-1 relay hops must reproduce every archived day exactly.
    int status = 0;
    for (const auto& entry : reader.manifest().entries) {
      std::ostringstream want;
      reader.export_csv(entry.day, want);
      const bool ok = follower.has_day(entry.day) &&
                      follower.day_csv(entry.day) == want.str();
      std::printf("day %u: %s (%zu bytes over %ld hops)\n", entry.day,
                  ok ? "byte-identical" : "MISMATCH", want.str().size(),
                  count - 1);
      if (!ok) status = 1;
    }

    // Scripted queries enter at the tail and are answered by the origin.
    std::vector<std::string> lines = {"summary", "stability", "mesh-stats"};
    if (args.has("script")) {
      const auto path = args.get("script", "");
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "laces relay: cannot open script %s\n",
                     path.c_str());
        return 2;
      }
      lines.clear();
      std::string line;
      while (std::getline(in, line)) lines.push_back(line);
    }
    std::uint64_t request_id = 0;
    for (const auto& line : lines) {
      const auto first = line.find_first_not_of(" \t");
      if (first == std::string::npos || line[first] == '#') continue;
      const auto request = parse_request_line(line.substr(first), &error);
      if (!request) {
        std::fprintf(stderr, "laces relay: %s\n", error.c_str());
        return 2;
      }
      const auto frame = chain->tail().query(serve::encode_frame(
          config.key, serve::FrameKind::kRequest, ++request_id,
          serve::encode_request(*request)));
      const auto response = serve::decode_response(
          serve::decode_frame(config.key, frame).payload);
      if (std::holds_alternative<serve::ErrorResponse>(response)) status = 1;
      std::fputs(serve::json_response(response).c_str(), stdout);
    }

    for (const auto& relay : chain->relays) print_mesh_stats(relay->stats());
    server.drain();
    return status;
  } catch (const store::ArchiveError& e) {
    std::fprintf(stderr, "laces relay: %s\n", e.what());
    return 1;
  } catch (const serve::ProtocolError& e) {
    std::fprintf(stderr, "laces relay: %s\n", e.what());
    return 1;
  }
}

/// `laces subscribe`: leaf subscriber over an archive's delta feed with
/// the wire filter grammar (--family 4|6, --prefix A.B.C.0/24). Prints one
/// line per completed day; --export-day N dumps that day's reconstruction
/// (CSV, or the served JSON envelope with --json).
int cmd_subscribe(const Args& args) {
  if (!args.has("archive")) {
    std::fprintf(stderr, "laces subscribe: --archive DIR required\n");
    return 2;
  }
  const std::filesystem::path dir(args.get("archive", "archive"));
  try {
    store::ArchiveReader reader(
        dir, static_cast<std::size_t>(args.get_int("reader-cache", 8)));
    if (reader.manifest().entries.empty()) {
      std::fprintf(stderr, "laces subscribe: archive is empty\n");
      return 2;
    }
    std::string error;
    auto chain = build_mesh_chain(
        dir, nullptr, args.get("key", "laces-serve"),
        std::max(args.get_int("relays", 1), 1L), &error);
    if (!chain) {
      std::fprintf(stderr, "laces subscribe: %s\n", error.c_str());
      return 1;
    }

    mesh::SubscriptionSpec spec;
    const long family = args.get_int("family", 0);
    if (family != 0 && family != 4 && family != 6) {
      std::fprintf(stderr, "laces subscribe: --family must be 4 or 6\n");
      return 2;
    }
    spec.family = static_cast<std::uint8_t>(family);
    if (args.has("prefix")) {
      const auto parsed = net::Ipv4Prefix::parse(args.get("prefix", ""));
      if (!parsed) {
        std::fprintf(stderr,
                     "laces subscribe: --prefix A.B.C.0/24 malformed\n");
        return 2;
      }
      spec.prefixes.push_back(net::Prefix(*parsed));
    }
    const bool filtered = spec.family != 0 || !spec.prefixes.empty();
    mesh::CensusFollower follower(chain->tail(), spec);

    int status = 0;
    for (const auto& entry : reader.manifest().entries) {
      if (!follower.has_day(entry.day)) {
        std::printf("day %u: MISSING\n", entry.day);
        status = 1;
        continue;
      }
      const auto csv = follower.day_csv(entry.day);
      if (filtered) {
        // A filtered feed reconstructs a subset; report its size only.
        std::printf("day %u: %lld lines (filtered)\n", entry.day,
                    static_cast<long long>(
                        std::count(csv.begin(), csv.end(), '\n')));
      } else {
        std::ostringstream want;
        reader.export_csv(entry.day, want);
        const bool ok = csv == want.str();
        std::printf("day %u: %s (%zu bytes)\n", entry.day,
                    ok ? "byte-identical" : "MISMATCH", csv.size());
        if (!ok) status = 1;
      }
    }
    if (args.has("export-day")) {
      const auto day =
          static_cast<std::uint32_t>(args.get_int("export-day", 0));
      if (!follower.has_day(day)) {
        std::fprintf(stderr, "laces subscribe: day %u not in feed\n", day);
        return 1;
      }
      std::fputs((args.has("json") ? follower.day_json(day)
                                   : follower.day_csv(day))
                     .c_str(),
                 stdout);
    }
    const auto cursor = follower.cursor();
    std::fprintf(stderr,
                 "laces subscribe: %zu days, cursor=(day %u, seq %u)\n",
                 follower.days(), cursor.day, cursor.seq);
    return status;
  } catch (const store::ArchiveError& e) {
    std::fprintf(stderr, "laces subscribe: %s\n", e.what());
    return 1;
  } catch (const serve::ProtocolError& e) {
    std::fprintf(stderr, "laces subscribe: %s\n", e.what());
    return 1;
  }
}

int cmd_fuzz_scenarios(const Args& args) {
  scenario::FuzzOptions opts;
  opts.start_seed = static_cast<std::uint64_t>(args.get_int("start-seed", 1));
  opts.seeds = static_cast<int>(args.get_int("seeds", 20));
  opts.days = static_cast<std::uint32_t>(
      std::max(args.get_int("days", 2), 1L));
  opts.timeout_seconds = static_cast<double>(args.get_int("timeout", 120));
  opts.resume_check_every = static_cast<int>(args.get_int("resume-every", 5));
  opts.shard_check_every = static_cast<int>(args.get_int("shard-every", 7));
  opts.shard_count = static_cast<std::size_t>(
      std::max(args.get_int("sim-threads", 4), 1L));
  opts.work_dir =
      std::filesystem::path(args.get("work-dir", "fuzz-scenarios-work"));
  opts.verbose = args.has("verbose");
  std::filesystem::create_directories(opts.work_dir);

  const auto summary = scenario::run_fuzz(opts);
  std::printf("fuzz-scenarios: %d seeds (%d resume checks, %d shard checks): "
              "%llu regime applications, %llu degraded days, %llu worker "
              "outages\n",
              summary.ran, summary.resume_checks, summary.shard_checks,
              static_cast<unsigned long long>(summary.regimes_applied),
              static_cast<unsigned long long>(summary.degraded_days),
              static_cast<unsigned long long>(summary.worker_outages));
  if (summary.ok()) {
    std::printf("fuzz-scenarios: OK\n");
    return 0;
  }
  for (const auto& f : summary.failures) {
    std::printf(
        "fuzz-scenarios: seed %llu FAILED: %s\n"
        "  spec: %s\n"
        "  reproduce: laces fuzz-scenarios --start-seed %llu --seeds 1 "
        "--days %u --resume-every 1 --shard-every 1\n",
        static_cast<unsigned long long>(f.seed), f.what.c_str(),
        f.spec.c_str(), static_cast<unsigned long long>(f.seed), opts.days);
  }
  return 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: laces <world|census|probe|catchment|query|serve|"
               "bench-serve|relay|subscribe|stat|flightrec|fuzz-scenarios> "
               "[options]\n"
               "  world      --seed N --scale K\n"
               "  census     --days N --out DIR --v6 --no-tcp --no-dns --rate R\n"
               "             --sim-threads N --world-scale K\n"
               "             --metrics-out FILE --trace-out FILE --canary\n"
               "             --faults 'SPEC|random' --fault-seed N\n"
               "             (SPEC: 'kind@start[+dur][:site=N|all|cli,p=X,"
               "mag=D]; ...')\n"
               "             --scenario 'SPEC|random' --scenario-seed N\n"
               "             (SPEC adds regimes diurnal|storm|throttle|skew|"
               "route-flip|\n"
               "              path-loss|churn: 'kind@at[+dur][:days=A-B,"
               "site=N|all,count=K,\n"
               "              p=X,frac=F,mag=D,proto=icmp+tcp+dns]; ...')\n"
               "             --archive DIR [--resume]\n"
               "             --flightrec FILE [--flightrec-capacity N]\n"
               "  probe      --prefix A.B.C.0/24 --day D\n"
               "  catchment  --seed N --scale K\n"
               "  query      --archive DIR [--summary] [--stability]\n"
               "             [--prefix A.B.C.0/24] [--intermittent]\n"
               "             [--export-day N] [--verify] [--json]\n"
               "  serve      --archive DIR [--script FILE] [--repeat K]\n"
               "             [--clients M] [--threads N] [--queue N]\n"
               "             [--inflight N] [--cache-shards N]\n"
               "             [--cache-entries N] [--key K]\n"
               "             [--metrics-out FILE] [--trace-out FILE]\n"
               "  bench-serve --archive DIR [--clients M] [--requests N]\n"
               "             [--qps Q] [--seed N] [--out FILE]\n"
               "             [--threads N] [--queue N] [--inflight N]\n"
               "  relay      --archive DIR [--relays N] [--script FILE]\n"
               "             [--key K]\n"
               "  subscribe  --archive DIR [--relays N] [--family 4|6]\n"
               "             [--prefix A.B.C.0/24] [--export-day N] [--json]\n"
               "  stat       --archive DIR [--polls N] [--interval-ms MS]\n"
               "             [--clients M] [--requests N] [--mesh N] [--json]\n"
               "  flightrec  DUMP   (decode a flight-recorder dump to JSONL)\n"
               "  fuzz-scenarios [--seeds N] [--start-seed S] [--days D]\n"
               "             [--timeout SECS] [--resume-every K] "
               "[--shard-every K]\n"
               "             [--sim-threads N] [--work-dir DIR] [--verbose]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  const Args args = parse_args(argc, argv, 2);
  if (command == "world") return cmd_world(args);
  if (command == "census") return cmd_census(args);
  if (command == "probe") return cmd_probe(args);
  if (command == "catchment") return cmd_catchment(args);
  if (command == "query") return cmd_query(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "bench-serve") return cmd_bench_serve(args);
  if (command == "relay") return cmd_relay(args);
  if (command == "subscribe") return cmd_subscribe(args);
  if (command == "stat") return cmd_stat(args);
  if (command == "fuzz-scenarios") return cmd_fuzz_scenarios(args);
  if (command == "flightrec") {
    if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
      std::fprintf(stderr, "usage: laces flightrec DUMP\n");
      return 2;
    }
    return cmd_flightrec(argv[2]);
  }
  usage();
  return 2;
}
