#include <sys/resource.h>

#include "net/wire.h"
#include "perfbench.h"

namespace perfbench {

void Fingerprint::AddRound(const themis::ResourceOffer& offer,
                           const themis::GrantSet& grants) {
  Add(offer.round_id);
  AddDouble(offer.time);
  Add(static_cast<std::uint64_t>(offer.gpus.size()));
  AddDouble(grants.lease_expiry);
  for (const themis::Grant& g : grants.grants) {
    Add(g.app);
    Add(g.job);
    for (themis::GpuId gpu : g.gpus) Add(gpu);
  }
}

double Pct(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

void LayerTrace::AddRound(const PhaseSample& phases, double round_s) {
  round_s_ += round_s;
  probe_s_ += phases.probe_s;
  bid_s_ += phases.bid_s;
  pa_s_ += phases.pa_s;
  if (phases.participants < 0) return;
  ++auctions_;
  participants_ += phases.participants;
  if (phases.pa_exact) ++exact_;
  pa_ms_.push_back(phases.pa_s * 1e3);
  bid_us_.insert(bid_us_.end(), phases.bid_us.begin(), phases.bid_us.end());
}

void LayerTrace::AddCodec(double encode_offer_us, double encode_grant_us,
                          const std::vector<double>& parse_bid_us,
                          std::size_t bytes) {
  offer_us_.push_back(encode_offer_us);
  grant_us_.push_back(encode_grant_us);
  bid_wire_us_.insert(bid_wire_us_.end(), parse_bid_us.begin(),
                      parse_bid_us.end());
  bytes_ += static_cast<double>(bytes);
  ++codec_rounds_;
}

void LayerTrace::Emit(std::map<std::string, double>& m) const {
  const double auctions = static_cast<double>(std::max<long long>(1, auctions_));
  m["core.round_busy_s"] = round_s_;
  m["core.probe_busy_s"] = probe_s_;
  m["core.rest_busy_s"] = round_s_ - probe_s_ - bid_s_ - pa_s_;
  m["core.participants_per_round"] = static_cast<double>(participants_) / auctions;
  m["agent.bid_calls"] = static_cast<double>(bid_us_.size());
  m["agent.bid_busy_s"] = bid_s_;
  m["agent.bid_p50_us"] = Pct(bid_us_, 50.0);
  m["auction.pa_busy_s"] = pa_s_;
  m["auction.pa_p99_ms"] = Pct(pa_ms_, 99.0);
  m["auction.pa_exact_frac"] = static_cast<double>(exact_) / auctions;
  m["net.encode_offer_us"] = Pct(offer_us_, 50.0);
  m["net.encode_grant_us"] = Pct(grant_us_, 50.0);
  m["net.parse_bid_us"] = Pct(bid_wire_us_, 50.0);
  m["net.bytes_per_round"] =
      bytes_ / static_cast<double>(std::max<long long>(1, codec_rounds_));
}

bool MeasureCodec(const themis::ResourceOffer& offer,
                  const themis::GrantSet& grants,
                  const std::vector<const themis::AppState*>& bidders,
                  LayerTrace& trace) {
  namespace net = themis::net;
  auto t0 = Clock::now();
  const std::string offer_frame = net::EncodeOffer(offer);
  const double offer_us = SecondsSince(t0) * 1e6;
  t0 = Clock::now();
  const std::string grant_frame = net::EncodeGrant(grants, {});
  const double grant_us = SecondsSince(t0) * 1e6;
  std::size_t bytes = offer_frame.size() + grant_frame.size();
  std::vector<double> bid_us;
  bool round_trips = true;
  for (const themis::AppState* app : bidders) {
    const net::BidDemand demand{app->id, app->UnmetDemand()};
    t0 = Clock::now();
    const std::string bid = net::EncodeBid(offer.round_id, {demand});
    const net::WireMessage parsed = net::ParseWireMessage(bid);
    bid_us.push_back(SecondsSince(t0) * 1e6);
    bytes += bid.size();
    round_trips = round_trips && parsed.type == net::MsgType::kBid &&
                  parsed.round_id == offer.round_id &&
                  parsed.demands.size() == 1 &&
                  parsed.demands[0].app == demand.app &&
                  parsed.demands[0].unmet_gpus == demand.unmet_gpus;
  }
  trace.AddCodec(offer_us, grant_us, bid_us, bytes);
  return round_trips;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
