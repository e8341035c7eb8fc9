#include "src/sim/net.h"

#include "src/sim/async.h"

namespace pass::sim {

namespace {

constexpr Nanos kRttNs = 200 * kMicro;  // LAN round trip
constexpr double kWireNsPerByte = 9.0;  // ~1 Gbit/s

Nanos ExchangeCost(uint64_t request_bytes, uint64_t response_bytes) {
  Nanos cost = kRttNs;
  cost += static_cast<Nanos>(kWireNsPerByte *
                             static_cast<double>(request_bytes +
                                                 response_bytes));
  return cost;
}

}  // namespace

void Network::RoundTrip(uint64_t request_bytes, uint64_t response_bytes) {
  ++stats_.round_trips;
  stats_.bytes_sent += request_bytes;
  stats_.bytes_received += response_bytes;
  clock_->Advance(ExchangeCost(request_bytes, response_bytes));
}

Nanos Network::RoundTripAsync(AsyncTimeline* timeline, uint64_t request_bytes,
                              uint64_t response_bytes) {
  ++stats_.round_trips;
  stats_.bytes_sent += request_bytes;
  stats_.bytes_received += response_bytes;
  return timeline->Schedule(ExchangeCost(request_bytes, response_bytes));
}

}  // namespace pass::sim
