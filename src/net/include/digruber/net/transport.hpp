#pragma once

#include <cstdint>

#include "digruber/common/ids.hpp"
#include "digruber/net/wire/buffer.hpp"

namespace digruber::net {

/// A datagram between two endpoints. `payload` is a complete wire frame in
/// shared immutable storage: transports copy the Buffer (a refcount bump),
/// never the bytes, so one encoded frame can sit in several delivery
/// queues at once. Receivers may keep slices of the payload past
/// `on_packet` returning — the storage lives as long as any slice does.
struct Packet {
  NodeId src;
  NodeId dst;
  Buffer payload;
};

/// Receives packets addressed to a registered node.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void on_packet(Packet packet) = 0;
};

/// Message-passing abstraction. SimTransport implements it on the
/// discrete-event kernel with a WAN latency model; protocol actors see
/// only this interface.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Attach `endpoint` and return its address. The endpoint must outlive
  /// the transport (or be detached first).
  virtual NodeId attach(Endpoint& endpoint) = 0;
  virtual void detach(NodeId node) = 0;

  /// Re-register an endpoint at a previously assigned address — a host
  /// coming back after a crash keeps its network identity. Returns false
  /// if the address was never issued or is currently in use.
  virtual bool reattach(NodeId node, Endpoint& endpoint) = 0;

  /// Fire-and-forget send. Packets to unknown nodes are dropped (as on a
  /// real network); delivery order between distinct pairs is not
  /// guaranteed, per-pair order follows the latency model.
  virtual void send(Packet packet) = 0;
};

}  // namespace digruber::net
