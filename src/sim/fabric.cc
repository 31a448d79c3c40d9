#include "sim/fabric.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace fela::sim {

Fabric::Fabric(Simulator* sim, int num_nodes, const Calibration& cal)
    : sim_(sim),
      num_nodes_(num_nodes),
      cal_(cal),
      out_free_(num_nodes, 0.0),
      last_out_(num_nodes, kInvalidEventId),
      in_free_(num_nodes, 0.0),
      bytes_sent_(num_nodes, 0.0),
      bytes_received_(num_nodes, 0.0),
      out_busy_(num_nodes, 0.0),
      in_busy_(num_nodes, 0.0) {
  FELA_CHECK_GT(num_nodes, 0);
  if (cal_.topology.hierarchical()) {
    FELA_CHECK_GT(cal_.topology.rack_size, 0);
    const size_t racks =
        static_cast<size_t>(cal_.topology.NumRacks(num_nodes));
    rack_up_free_.assign(racks, 0.0);
    rack_down_free_.assign(racks, 0.0);
  }
}

void Fabric::CheckNode(NodeId node) const {
  FELA_CHECK(node >= 0 && node < num_nodes_) << "node " << node;
}

SimTime Fabric::NextFreeTime(NodeId src, NodeId dst) const {
  CheckNode(src);
  CheckNode(dst);
  const Topology& topo = cal_.topology;
  if (topo.hierarchical() && topo.RackOf(src) != topo.RackOf(dst)) {
    return std::max({sim_->now(), out_free_[src], in_free_[dst],
                     rack_up_free_[static_cast<size_t>(topo.RackOf(src))],
                     rack_down_free_[static_cast<size_t>(topo.RackOf(dst))]});
  }
  return std::max({sim_->now(), out_free_[src], in_free_[dst]});
}

void Fabric::Transfer(NodeId src, NodeId dst, double bytes, EventFn done) {
  CheckNode(src);
  CheckNode(dst);
  FELA_CHECK_GE(bytes, 0.0);
  if (src == dst || bytes <= 0.0) {
    // Device-local data; no network involvement.
    sim_->Schedule(0.0, std::move(done));
    return;
  }
  const Topology& topo = cal_.topology;
  const bool cross_rack =
      topo.hierarchical() && topo.RackOf(src) != topo.RackOf(dst);
  const SimTime start = NextFreeTime(src, dst);
  double bandwidth = cal_.nic_bandwidth_bytes_per_sec;
  double latency = cal_.message_latency_sec;
  if (cross_rack) {
    // The flow crosses ToR -> aggregation -> ToR: it is clocked at the
    // slower of the NIC and the rack uplink, and pays the two extra
    // switch hops.
    if (topo.uplink_bandwidth_bytes_per_sec > 0.0) {
      bandwidth = std::min(bandwidth, topo.uplink_bandwidth_bytes_per_sec);
    }
    latency += 2.0 * topo.rack_hop_latency_sec;
  }
  const double wire = bytes / bandwidth;
  const SimTime finish = start + latency + wire;
  out_free_[src] = finish;
  in_free_[dst] = finish;
  out_busy_[src] += finish - start;
  in_busy_[dst] += finish - start;
  if (cross_rack) {
    rack_up_free_[static_cast<size_t>(topo.RackOf(src))] = finish;
    rack_down_free_[static_cast<size_t>(topo.RackOf(dst))] = finish;
    ++cross_rack_transfer_count_;
    cross_rack_bytes_ += bytes;
  }
  bytes_sent_[src] += bytes;
  bytes_received_[dst] += bytes;
  total_data_bytes_ += bytes;
  ++data_transfer_count_;
  if (spans_ != nullptr && spans_->enabled()) {
    spans_->Emit(obs::Span{dst, obs::Phase::kTransfer, start, finish, -1, {}});
  }
  last_out_[src] = sim_->ScheduleAfter(last_out_[src], finish, std::move(done));
}

void Fabric::SetFaults(const FaultSchedule* faults, TraceRecorder* trace) {
  faults_ = faults;
  fault_trace_ = trace;
}

void Fabric::SendControl(NodeId src, NodeId dst, std::function<void()> done) {
  CheckNode(src);
  CheckNode(dst);
  ++control_message_count_;
  bool duplicated = false;
  // Gray failures inflate control latency at either endpoint; 1.0 when no
  // schedule is active or no gray interval covers the endpoints.
  double delay_factor = 1.0;
  if (faults_ != nullptr && faults_->Active()) {
    const uint64_t seq = control_seq_++;
    const SimTime now = sim_->now();
    // A dead endpoint neither emits nor absorbs control traffic; live
    // messages may additionally be eaten or duplicated by the lossy
    // control plane.
    if (faults_->IsDownAt(now, src) || faults_->IsDownAt(now, dst) ||
        faults_->DropControl(seq)) {
      ++control_dropped_count_;
      FELA_TRACE(fault_trace_, now, dst, TraceKind::kControlDrop,
                 FELA_TOK("src=%d seq=%llu"), src,
                 static_cast<unsigned long long>(seq));
      return;
    }
    // A partition cut is reachability, not death: both endpoints live,
    // but nothing crosses the cut until the partition heals.
    if (faults_->Partitioned(now, src, dst)) {
      ++control_dropped_count_;
      FELA_TRACE(fault_trace_, now, dst, TraceKind::kPartitionDrop,
                 FELA_TOK("src=%d seq=%llu"), src,
                 static_cast<unsigned long long>(seq));
      return;
    }
    if (faults_->DuplicateControl(seq)) {
      duplicated = true;
      ++control_duplicated_count_;
      FELA_TRACE(fault_trace_, now, dst, TraceKind::kControlDup,
                 FELA_TOK("src=%d seq=%llu"), src,
                 static_cast<unsigned long long>(seq));
    }
    delay_factor = std::max(faults_->ControlDelayFactor(now, src),
                            faults_->ControlDelayFactor(now, dst));
  }
  const Topology& topo = cal_.topology;
  const bool cross_rack =
      topo.hierarchical() && topo.RackOf(src) != topo.RackOf(dst);
  const double latency =
      (cal_.message_latency_sec +
       (cross_rack ? 2.0 * topo.rack_hop_latency_sec : 0.0)) *
      delay_factor;
  // One-way path delay: zero on loopback (co-located roles, e.g. the TS
  // talking to the worker on its own node, short-circuit the NIC),
  // latency + wire time on a remote path.
  double path_delay = 0.0;
  if (src != dst) {
    const double wire =
        cal_.control_message_bytes / cal_.nic_bandwidth_bytes_per_sec;
    path_delay = latency + wire;
  }
  if (duplicated) {
    // A retransmitted duplicate leaves one sender timeout (modelled as
    // one message latency) after the original and traverses the same
    // path — on loopback too: retransmission implies a timeout at the
    // sender, not a second instantaneous local delivery. The original is
    // scheduled first so that when both land at the same timestamp (a
    // zero-latency calibration) FIFO event order still delivers the
    // original before its copy.
    sim_->Schedule(path_delay, done);
    sim_->Schedule(latency + path_delay, std::move(done));
    return;
  }
  sim_->Schedule(path_delay, std::move(done));
}

void Fabric::ResetStats() {
  std::fill(bytes_sent_.begin(), bytes_sent_.end(), 0.0);
  std::fill(bytes_received_.begin(), bytes_received_.end(), 0.0);
  std::fill(out_busy_.begin(), out_busy_.end(), 0.0);
  std::fill(in_busy_.begin(), in_busy_.end(), 0.0);
  total_data_bytes_ = 0.0;
  data_transfer_count_ = 0;
  cross_rack_transfer_count_ = 0;
  cross_rack_bytes_ = 0.0;
  control_message_count_ = 0;
  control_dropped_count_ = 0;
  control_duplicated_count_ = 0;
  control_seq_ = 0;
}

}  // namespace fela::sim
