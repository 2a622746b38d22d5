// Per-flow and per-VIP data-plane state shared by the pipeline stages.
//
// `LocalFlow` is the instance-local working state of one client connection:
// the replicated `FlowState` core, the FSM phase, the connection-phase
// reassembly buffers, TLS handshake scratch, HTTP/1.1 inspection cursors and
// mirror-leg bookkeeping. `VipState` is everything installed per VIP (rule
// table, sticky bindings, backend set, optional TLS material). Both used to
// be private nested types of the YodaInstance god class; the pipeline stage
// engines (handshake, dispatch, splice, takeover) now operate on them
// through FlowTable and PipelineContext instead of instance internals.

#ifndef SRC_CORE_LOCAL_FLOW_H_
#define SRC_CORE_LOCAL_FLOW_H_

#include <compare>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/flow_fsm.h"
#include "src/core/flow_state.h"
#include "src/http/parser.h"
#include "src/kv/hash_ring.h"
#include "src/net/packet.h"
#include "src/net/payload.h"
#include "src/rules/rule_table.h"
#include "src/sim/simulator.h"
#include "src/tls/tls.h"

namespace yoda {

// Client-side flow identity. Ordered field by field (vip, vip_port,
// client_ip, client_port): the order FlowTable's sweeps hand keys out in.
struct FlowKey {
  net::IpAddr vip = 0;
  net::Port vip_port = 0;
  net::IpAddr client_ip = 0;
  net::Port client_port = 0;
  auto operator<=>(const FlowKey&) const = default;
};

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const {
    return kv::Mix64((static_cast<std::uint64_t>(k.vip) << 32) ^ k.client_ip) ^
           kv::Mix64((static_cast<std::uint64_t>(k.vip_port) << 16) ^ k.client_port);
  }
};

// SSL termination material for one VIP (§5.2).
struct VipTls {
  std::string certificate;
  std::uint64_t service_key = 0;
};

// Everything installed on an instance for one VIP.
struct VipState {
  net::Port vip_port = 80;
  rules::RuleTable table;
  rules::StickyTable sticky;
  std::set<net::IpAddr> backends;  // For classifying server-side packets.
  std::optional<VipTls> tls;       // SSL termination (§5.2).
  // Stateless fast path policy: how flows on this VIP persist their state.
  // Installed by the controller through epoch-tagged plan steps; existing
  // flows keep the mode they latched at creation (make-before-break).
  StoreMode store_mode = StoreMode::kStateful;
  std::uint64_t store_epoch = 0;  // Install epoch; low 8 bits gate cookies.
};

struct LocalFlow {
  explicit LocalFlow(FlowPhase initial = FlowPhase::kSynReceived) : fsm(initial) {}

  FlowState st;
  FlowFsm fsm;
  sim::Time started = 0;      // Selection start (Fig 9 instrumentation).
  sim::Time last_packet = 0;  // For idle GC.
  // Stage-boundary timestamps for the per-stage latency histograms.
  sim::Time syn_time = 0;            // Client SYN arrival (0 for adopted flows).
  sim::Time server_syn_time = 0;     // First server SYN emitted.
  sim::Time takeover_start = 0;      // Orphan packet arrival (takeover path).
  // Connection phase: client byte-stream reassembly (seq -> payload).
  // Payload values share the client's segment buffers (no deep copies).
  std::map<std::uint32_t, net::Payload> pending_segments;
  std::uint32_t assembled_end = 0;  // Next expected client seq.
  std::string assembled;            // In-order client bytes (the header).
  http::RequestParser parser;
  int server_syn_attempts = 0;
  sim::TimerHandle server_syn_timer;
  // HTTP/1.1 inspection of the client stream for re-switching. Request
  // bytes are buffered from request_start_seq until the request is
  // complete and routed; only then are they forwarded.
  bool inspect_enabled = false;
  http::RequestParser inspect_parser;
  std::uint32_t inspect_next_seq = 0;   // Next client seq to consume.
  std::uint32_t request_start_seq = 0;  // Where the in-progress request began.
  std::string pending_request;          // Its bytes so far.
  int outstanding_requests = 0;
  // Highest client-facing sequence we have emitted toward the client + 1;
  // a re-switched backend's stream is spliced in at this position.
  std::uint32_t client_facing_nxt = 0;
  // Request mirroring (§5.2, "sending the same request to multiple
  // servers"): shadow legs racing the primary; the first responder wins.
  struct MirrorLeg {
    net::IpAddr ip = 0;
    net::Port port = 80;
    bool established = false;
    std::uint32_t server_isn = 0;
  };
  std::vector<MirrorLeg> mirror_legs;
  bool mirror_decided = false;  // A winner has produced response data.

  // SSL termination state (connection phase only; tunneling is oblivious).
  bool tls_active = false;
  tls::RecordReader tls_reader;
  std::size_t tls_consumed = 0;        // assembled bytes already fed.
  bool tls_ready = false;              // Session key derived.
  std::uint64_t tls_client_random = 0;
  std::uint64_t tls_session_key = 0;
  std::uint32_t tls_handshake_len = 0;  // Hello+Finished bytes (client side).
  std::uint64_t tls_cipher_offset = 0;  // Decryption offset into appdata.
  std::string tls_plaintext;            // Decrypted request bytes.
  std::uint32_t cert_flight_len = 0;
  // Teardown tracking (two independent directions; the phase moves to
  // kDraining only once both are set).
  bool fin_from_client = false;
  bool fin_from_server = false;
  // Packets that arrived during an in-flight storage op.
  std::vector<net::Packet> stalled;

  // Store mode latched at flow creation (a mid-run per-VIP flip only affects
  // flows created after the install).
  StoreMode store_mode = StoreMode::kStateful;
  // Set when this flow was adopted via takeover. Adopted stateless flows
  // tear down through the synchronous remove path: the original owner may
  // have flushed the state to the store before crashing, and only a real
  // delete guarantees the key cannot go stale there.
  bool adopted = false;
  // Latest signed SYN-cookie token minted for this flow (0 in stateful mode);
  // stamped on every client-bound packet so the client's TCP echoes it back.
  std::uint64_t cookie = 0;

  // Phase-backed views of the old implicit flags.
  FlowPhase phase() const { return fsm.phase(); }
  bool established() const { return fsm.established(); }
  bool lookup_pending() const { return fsm.lookup_pending(); }
};

}  // namespace yoda

#endif  // SRC_CORE_LOCAL_FLOW_H_
