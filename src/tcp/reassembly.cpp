#include "tcp/reassembly.hpp"

#include <iterator>

namespace xgbe::tcp {

bool Reassembly::is_duplicate(net::Seq seq, std::uint32_t len) const {
  // Entirely below rcv_nxt?
  if (net::seq_le(seq + len, rcv_nxt_)) return true;
  // Entirely covered by one out-of-order range? Ranges are disjoint with
  // gaps between them, so only the last one starting at or before `seq`
  // can cover it.
  auto it = ooo_.upper_bound(seq);
  if (it == ooo_.begin()) return false;
  --it;
  return net::seq_le(it->first, seq) &&
         net::seq_le(seq + len, it->first + it->second);
}

std::uint32_t Reassembly::offer(net::Seq seq, std::uint32_t len) {
  if (len == 0) return 0;
  net::Seq end = seq + len;
  // Trim data already received in order.
  if (net::seq_lt(seq, rcv_nxt_)) {
    if (net::seq_le(end, rcv_nxt_)) return 0;  // full duplicate
    seq = rcv_nxt_;
  }

  if (net::seq_gt(seq, rcv_nxt_)) {
    // Out of order: insert [seq, end), coalescing with every range it
    // overlaps or touches. Ranges are disjoint with gaps between them, so
    // only the last range starting at or before `seq` can reach it from
    // below; the ranges after it merge in order while they start at or
    // before the merged end.
    auto it = ooo_.upper_bound(seq);
    if (it != ooo_.begin()) {
      const auto prev = std::prev(it);
      if (net::seq_le(seq, prev->first + prev->second)) it = prev;
    }
    net::Seq nstart = seq;
    net::Seq nend = end;
    while (it != ooo_.end() && net::seq_le(it->first, nend)) {
      nstart = net::seq_min(nstart, it->first);
      nend = net::seq_max(nend, it->first + it->second);
      ooo_bytes_ -= it->second;
      it = ooo_.erase(it);
    }
    ooo_.emplace_hint(it, nstart, net::seq_span(nstart, nend));
    ooo_bytes_ += net::seq_span(nstart, nend);
    return 0;
  }

  // In order: advance rcv_nxt, then drain any now-contiguous ranges.
  std::uint32_t delivered = net::seq_span(rcv_nxt_, end);
  rcv_nxt_ = end;
  for (auto it = ooo_.begin(); it != ooo_.end();) {
    if (net::seq_gt(it->first, rcv_nxt_)) break;
    const net::Seq e = it->first + it->second;
    if (net::seq_gt(e, rcv_nxt_)) {
      delivered += net::seq_span(rcv_nxt_, e);
      rcv_nxt_ = e;
    }
    ooo_bytes_ -= it->second;
    it = ooo_.erase(it);
  }
  return delivered;
}

std::string Reassembly::invariant_violation() const {
  std::uint64_t total = 0;
  bool have_prev = false;
  net::Seq prev_end = 0;
  for (const auto& [start, len] : ooo_) {
    if (len == 0) return "empty out-of-order range at " + std::to_string(start);
    if (!net::seq_gt(start, rcv_nxt_)) {
      return "out-of-order range " + std::to_string(start) +
             " not beyond rcv_nxt " + std::to_string(rcv_nxt_);
    }
    if (have_prev && !net::seq_lt(prev_end, start)) {
      return "uncoalesced/overlapping ranges at " + std::to_string(start);
    }
    prev_end = start + len;
    have_prev = true;
    total += len;
  }
  if (total != ooo_bytes_) {
    return "ooo_bytes " + std::to_string(ooo_bytes_) +
           " != sum of ranges " + std::to_string(total);
  }
  return {};
}

}  // namespace xgbe::tcp
