#include "core/session.hpp"

#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace laces::core {

Session::Session(topo::SimNetwork& network,
                 const platform::AnycastPlatform& platform,
                 SessionOptions options)
    : network_(network), platform_(platform), options_(std::move(options)) {
  auto& events = network_.events();
  // Spans opened anywhere in this session stamp simulated, not wall, time.
  obs::Tracer::global().set_clock(&events);
  orchestrator_ = std::make_unique<Orchestrator>(events);
  orchestrator_->set_anycast_addresses(platform_.anycast_v4,
                                       platform_.anycast_v6);

  for (const auto& site : platform_.sites) {
    auto worker = std::make_unique<Worker>(site.name, site, network_);
    auto [worker_end, orch_end] =
        make_channel_pair(events, options_.key, options_.key,
                          options_.control_latency);
    orchestrator_->accept_worker(orch_end);
    worker->connect(worker_end);
    worker_links_.push_back({worker_end, orch_end});
    workers_.push_back(std::move(worker));
  }

  cli_ = std::make_unique<Cli>();
  auto [cli_end, orch_cli_end] = make_channel_pair(
      events, options_.key, options_.key, options_.control_latency);
  orchestrator_->attach_cli(orch_cli_end);
  cli_->connect(cli_end);
  cli_link_ = {cli_end, orch_cli_end};

  for (const auto protocol : net::kAllProtocols) {
    measurements_total_[static_cast<std::size_t>(protocol)] =
        &obs::Registry::global().counter(
            "laces_session_measurements_total",
            {{"protocol", std::string(net::metric_label(protocol))}});
  }

  // Let registrations settle before the first measurement.
  network_.run_events();
}

Session::~Session() {
  auto& tracer = obs::Tracer::global();
  if (tracer.clock() == &network_.events()) tracer.set_clock(nullptr);
}

void Session::reconnect_worker(std::size_t index) {
  auto [worker_end, orch_end] =
      make_channel_pair(network_.events(), options_.key, options_.key,
                        options_.control_latency);
  worker_links_[index] = {worker_end, orch_end};
  orchestrator_->accept_worker(orch_end);
  workers_[index]->connect(worker_end);
}

void Session::submit(const MeasurementSpec& spec,
                     const std::vector<net::IpAddress>& targets) {
  cli_->submit(spec, targets);
}

MeasurementResults Session::run(const MeasurementSpec& spec,
                                const std::vector<net::IpAddress>& targets) {
  const std::string protocol(net::metric_label(spec.protocol));
  obs::Span span("session.measurement");
  span.set_attr("protocol", protocol);
  span.set_attr("mode", spec.mode == ProbeMode::kAnycast ? "anycast" : "unicast");
  measurements_total_[static_cast<std::size_t>(spec.protocol)]->add();
  submit(spec, targets);
  network_.run_events();
  return cli_->take_results();
}

}  // namespace laces::core
