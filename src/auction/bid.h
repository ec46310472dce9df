// Bid representation for THEMIS auctions (Sec. 5.1 "Inputs: Resource offer,
// and bids").
//
// The ARBITER offers a resource vector R-> whose dimensions are the free GPU
// counts per machine. Each participating app answers with one bid: a
// valuation table with a row per candidate allocation. A row holds the
// requested GPUs per machine and the app's estimated new finish-time fairness
// metric rho if granted that subset (assuming all GPUs, existing plus new,
// are kept until the app completes).
//
// The mechanism needs a "higher is better" valuation that is homogeneous of
// degree one, since PA's truthfulness guarantee assumes it. We use V = 1 / rho,
// which the AGENT already computes and which has both properties: scaling an
// allocation k-fold on the same machines divides rho by k and therefore
// multiplies V by k.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace themis {

struct BidRow {
  /// Requested free GPUs per machine; same dimensionality as the offer.
  std::vector<int> gpus_per_machine;
  /// Estimated finish-time fairness metric with this allocation added.
  double rho = kUnboundedRho;

  int TotalGpus() const;
  bool IsZero() const;
  /// Mechanism valuation V = 1/rho (> 0 because rho is finite and positive).
  double Value() const;
};

struct BidTable {
  AppId app = kNoApp;
  /// Row 0 must be the zero allocation carrying the app's *current* rho; the
  /// mechanism uses it when the app wins nothing.
  std::vector<BidRow> rows;
};

/// Validation used at the ARBITER boundary: rows fit the offer, include a
/// zero row first, and valuations weakly improve with more resources.
/// Returns an empty string when valid, else a description of the violation.
std::string ValidateBid(const BidTable& bid, const std::vector<int>& offered);

}  // namespace themis
