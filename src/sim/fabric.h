#ifndef FELA_SIM_FABRIC_H_
#define FELA_SIM_FABRIC_H_

#include <functional>
#include <vector>

#include "sim/calibration.h"
#include "sim/event_fn.h"
#include "sim/faults.h"
#include "sim/simulator.h"
#include "sim/span.h"
#include "sim/trace.h"
#include "sim/types.h"

namespace fela::sim {

/// The cluster network: one full-duplex NIC per node into either a
/// single non-blocking switch (the paper's 40GE star — never the
/// bottleneck) or, when the calibration's Topology is hierarchical, a
/// two-tier rack/aggregation fabric where cross-rack flows additionally
/// serialize on the rack uplink/downlink channels. Bulk data transfers
/// serialize FIFO on the sender's outbound link and the receiver's
/// inbound link (plus the rack channels they cross); small token-protocol
/// control messages are multiplexed ahead of bulk data (modelled as
/// latency + wire time only).
class Fabric {
 public:
  Fabric(Simulator* sim, int num_nodes, const Calibration& cal);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int num_nodes() const { return num_nodes_; }
  const Topology& topology() const { return cal_.topology; }

  /// Schedules a bulk transfer of `bytes` from src to dst; `done` fires at
  /// completion time. A local (src == dst) transfer completes immediately
  /// (next event cycle) and moves no network bytes.
  void Transfer(NodeId src, NodeId dst, double bytes, EventFn done);

  /// Sends a control message (token request/report/notify). Not subject
  /// to FIFO queueing behind bulk data. Under an active fault schedule
  /// the message is dropped when either endpoint is down or the lossy
  /// control plane eats it (observable in the trace as ControlDrop), and
  /// may be delivered twice (ControlDup). Takes a copyable callback —
  /// duplication delivers the same `done` a second time.
  void SendControl(NodeId src, NodeId dst, std::function<void()> done);

  /// Installs a fault schedule consulted on every control send, plus an
  /// optional trace recorder making dropped/duplicated RPCs observable.
  /// Pass nullptr to detach. Bulk Transfer() is deliberately unaffected
  /// (see FaultSchedule's model notes).
  void SetFaults(const FaultSchedule* faults, TraceRecorder* trace);

  /// When set (and enabled), every bulk Transfer emits a kTransfer span
  /// on the *receiver's* track — the receiver is the node whose progress
  /// the bytes gate. Control messages are not spanned (they are orders of
  /// magnitude shorter than any bulk phase).
  void set_span_sink(obs::SpanSink* spans) { spans_ = spans; }

  /// Earliest time a new transfer from src to dst could start.
  SimTime NextFreeTime(NodeId src, NodeId dst) const;

  // -- Statistics ---------------------------------------------------------
  double total_data_bytes() const { return total_data_bytes_; }
  double bytes_sent(NodeId node) const { return bytes_sent_[node]; }
  double bytes_received(NodeId node) const { return bytes_received_[node]; }
  uint64_t data_transfer_count() const { return data_transfer_count_; }
  /// Bulk transfers that crossed a rack boundary (subset of
  /// data_transfer_count; always 0 on the flat star).
  uint64_t cross_rack_transfer_count() const {
    return cross_rack_transfer_count_;
  }
  double cross_rack_bytes() const { return cross_rack_bytes_; }
  uint64_t control_message_count() const { return control_message_count_; }
  uint64_t control_dropped_count() const { return control_dropped_count_; }
  uint64_t control_duplicated_count() const {
    return control_duplicated_count_;
  }
  /// Total time the node's outbound link spent busy with bulk data.
  double out_link_busy(NodeId node) const { return out_busy_[node]; }
  double in_link_busy(NodeId node) const { return in_busy_[node]; }

  void ResetStats();

 private:
  void CheckNode(NodeId node) const;

  Simulator* sim_;
  int num_nodes_;
  Calibration cal_;
  const FaultSchedule* faults_ = nullptr;
  TraceRecorder* fault_trace_ = nullptr;
  obs::SpanSink* spans_ = nullptr;
  uint64_t control_seq_ = 0;
  std::vector<SimTime> out_free_;
  /// Completion of each sender's last bulk transfer; the sender's next
  /// one is chained behind it (its finish is never earlier).
  std::vector<EventId> last_out_;
  std::vector<SimTime> in_free_;
  /// Per-rack uplink/downlink FIFO channels; sized NumRacks, empty on the
  /// flat star (where no rack channel exists to contend on).
  std::vector<SimTime> rack_up_free_;
  std::vector<SimTime> rack_down_free_;
  std::vector<double> bytes_sent_;
  std::vector<double> bytes_received_;
  std::vector<double> out_busy_;
  std::vector<double> in_busy_;
  double total_data_bytes_ = 0.0;
  uint64_t data_transfer_count_ = 0;
  uint64_t cross_rack_transfer_count_ = 0;
  double cross_rack_bytes_ = 0.0;
  uint64_t control_message_count_ = 0;
  uint64_t control_dropped_count_ = 0;
  uint64_t control_duplicated_count_ = 0;
};

}  // namespace fela::sim

#endif  // FELA_SIM_FABRIC_H_
