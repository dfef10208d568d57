#include "trace/background.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace jaal::trace {

using packet::PacketRecord;
using packet::TcpFlag;

namespace {

/// An emulated endpoint operating system: initial TTL and typical windows.
struct OsPersona {
  std::uint8_t initial_ttl;
  std::uint16_t syn_window;
  std::uint16_t data_window;
};

constexpr OsPersona kPersonas[] = {
    {64, 29200, 28960},   // Linux
    {64, 64240, 64240},   // newer Linux / macOS
    {128, 8192, 65535},   // Windows
    {255, 4128, 4128},    // network gear / Solaris
};

/// Lifecycle of one emulated TCP flow.
struct Flow {
  packet::FlowKey key;                 // client -> server direction
  std::uint32_t client_seq;
  std::uint32_t server_seq;
  std::uint32_t remaining_data_pkts;   // data packets still to emit
  std::uint8_t client_ttl;             // TTL as observed at the monitor
  std::uint8_t server_ttl;
  std::uint16_t client_window;
  std::uint16_t server_window;
  std::uint16_t client_ip_id;
  std::uint16_t server_ip_id;
  std::uint8_t tos;                    // per-flow DSCP marking
  std::uint8_t ip_flags;               // DF on virtually all modern stacks
  bool tcp_timestamps;                 // options change data_offset/lengths
  int stage = 0;                       // 0=SYN,1=SYNACK,2=ACK,3=data,4=FIN,5=FINACK
  bool server_heavy;                   // most data flows server -> client
};

}  // namespace

struct BackgroundTraffic::Impl {
  TraceProfile profile;        ///< Current (tilted) parameters.
  TraceProfile base_profile;   ///< Untilted preset, drift re-tilts from here.
  std::mt19937_64 rng;
  std::exponential_distribution<double> interarrival;
  std::discrete_distribution<std::size_t> port_pick;
  std::vector<Flow> flows;
  double now = 0.0;
  double next_time = 0.0;
  std::uint64_t emitted = 0;

  /// Backbone traffic is nonstationary: the mix a monitor sees in one
  /// window differs from the next (flash crowds, varying elephant/mice
  /// balance, applications coming and going).  Re-draw the composition
  /// tilt — from the untilted preset — so that successive windows carry
  /// genuinely different compositions, as real MAWI snapshots do.
  void retilt() {
    std::lognormal_distribution<double> tilt(0.0, 0.45);
    std::vector<double> weights;
    weights.reserve(base_profile.service_ports.size());
    for (const auto& [port, w] : base_profile.service_ports) {
      weights.push_back(w * tilt(rng));
    }
    port_pick = std::discrete_distribution<std::size_t>(weights.begin(),
                                                        weights.end());
    profile.pareto_alpha =
        base_profile.pareto_alpha *
        std::uniform_real_distribution<double>(0.85, 1.30)(rng);
    // Flow-length floor: windows dominated by short request/response
    // exchanges have several times the connection-setup (SYN) share of
    // windows dominated by bulk transfers.
    profile.pareto_min_packets =
        std::uniform_real_distribution<double>(1.0, 8.0)(rng);
    const double pool_tilt =
        std::uniform_real_distribution<double>(0.7, 1.5)(rng);
    profile.concurrent_flows = std::max<std::size_t>(
        32, static_cast<std::size_t>(
                static_cast<double>(base_profile.concurrent_flows) *
                pool_tilt));
    // The flow pool resizes lazily: new draws respect the new size.
    if (!flows.empty() && flows.size() > profile.concurrent_flows) {
      flows.resize(profile.concurrent_flows);
    } else {
      while (!flows.empty() && flows.size() < profile.concurrent_flows) {
        flows.push_back(fresh_flow());
      }
    }
  }

  /// Rejects a profile the generator cannot run; it checks before the
  /// members are built because the interarrival distribution needs a
  /// positive rate.
  static TraceProfile validated(TraceProfile p) {
    if (p.service_ports.empty()) {
      throw std::invalid_argument("BackgroundTraffic: empty service port mix");
    }
    if (p.packets_per_second <= 0.0) {
      throw std::invalid_argument("BackgroundTraffic: non-positive rate");
    }
    return p;
  }

  explicit Impl(TraceProfile p, std::uint64_t seed)
      : profile(validated(std::move(p))),
        rng(seed),
        interarrival(profile.packets_per_second) {
    base_profile = profile;
    retilt();
    flows.reserve(profile.concurrent_flows);
    for (std::size_t i = 0; i < profile.concurrent_flows; ++i) {
      flows.push_back(fresh_flow());
      // Stagger lifecycle stages so the pool starts in steady state.
      flows.back().stage = static_cast<int>(rng() % 4);
    }
    next_time = interarrival(rng);
  }

  [[nodiscard]] std::uint32_t random_client_ip() {
    // Clients spread across the public unicast space, avoiding the server
    // prefix 203.0.x.x so roles stay distinguishable.
    for (;;) {
      const auto ip = static_cast<std::uint32_t>(rng());
      const std::uint8_t first = static_cast<std::uint8_t>(ip >> 24);
      if (first == 0 || first >= 224 || first == 127 || first == 203) continue;
      return ip;
    }
  }

  [[nodiscard]] std::uint32_t random_server_ip() {
    // A modest population of servers in 203.0.0.0/16; Zipf-ish popularity by
    // biasing toward low host numbers.
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const auto host = static_cast<std::uint32_t>(std::pow(u, 2.2) * 4096.0);
    return packet::make_ip(203, 0, static_cast<std::uint8_t>(host >> 8),
                           static_cast<std::uint8_t>(host & 0xFF));
  }

  [[nodiscard]] std::uint32_t flow_size_packets() {
    // Pareto(alpha, xm): heavy-tailed flow sizes; most flows are mice, a few
    // are elephants.
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const double size = profile.pareto_min_packets /
                        std::pow(1.0 - u, 1.0 / profile.pareto_alpha);
    return static_cast<std::uint32_t>(std::min(size, 20000.0));
  }

  [[nodiscard]] Flow fresh_flow() {
    Flow f{};
    const auto service =
        profile.service_ports[port_pick(rng)].first;
    f.key.src_ip = random_client_ip();
    f.key.dst_ip = random_server_ip();
    f.key.src_port = static_cast<std::uint16_t>(
        32768 + (rng() % 28232));  // ephemeral range
    f.key.dst_port = service;
    f.client_seq = static_cast<std::uint32_t>(rng());
    f.server_seq = static_cast<std::uint32_t>(rng());
    f.remaining_data_pkts = flow_size_packets();
    const OsPersona& client = kPersonas[rng() % std::size(kPersonas)];
    const OsPersona& server = kPersonas[rng() % std::size(kPersonas)];
    // Observed TTL = initial minus hops to the monitor.
    f.client_ttl = static_cast<std::uint8_t>(client.initial_ttl - 4 - rng() % 18);
    f.server_ttl = static_cast<std::uint8_t>(server.initial_ttl - 2 - rng() % 12);
    f.client_window = client.data_window;
    f.server_window = server.data_window;
    f.client_ip_id = static_cast<std::uint16_t>(rng());
    f.server_ip_id = static_cast<std::uint16_t>(rng());
    // Most traffic is best-effort; a small minority carries DSCP markings
    // (AF/EF classes), as seen on real backbones.
    constexpr std::uint8_t kDscp[] = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 32, 40};
    f.tos = kDscp[rng() % std::size(kDscp)];
    f.ip_flags = (rng() % 100) < 98 ? 2 : 0;  // DF, rare legacy non-DF
    f.tcp_timestamps = (rng() % 100) < 90;    // RFC 7323 widely deployed
    f.server_heavy = (rng() % 100) < 80;      // downloads dominate
    return f;
  }

  [[nodiscard]] PacketRecord emit(Flow& f) {
    PacketRecord pkt;
    pkt.timestamp = now;
    pkt.ip.tos = f.tos;
    pkt.ip.flags = f.ip_flags;
    pkt.ip.ttl = f.client_ttl;
    pkt.ip.src_ip = f.key.src_ip;
    pkt.ip.dst_ip = f.key.dst_ip;
    pkt.tcp.src_port = f.key.src_port;
    pkt.tcp.dst_port = f.key.dst_port;

    const bool from_server = [&] {
      switch (f.stage) {
        case 1: return true;                       // SYN-ACK
        case 0: case 2: case 4: return false;      // SYN, ACK, client FIN
        case 5: return true;                       // server FIN-ACK
        default: return (rng() % 100) < (f.server_heavy ? 85u : 30u);
      }
    }();
    if (from_server) {
      std::swap(pkt.ip.src_ip, pkt.ip.dst_ip);
      std::swap(pkt.tcp.src_port, pkt.tcp.dst_port);
      pkt.ip.ttl = f.server_ttl;
      pkt.ip.identification = f.server_ip_id++;
      pkt.tcp.seq = f.server_seq;
      pkt.tcp.ack = f.client_seq;
      pkt.tcp.window = f.server_window;
    } else {
      pkt.ip.identification = f.client_ip_id++;
      pkt.tcp.seq = f.client_seq;
      pkt.tcp.ack = f.server_seq;
      pkt.tcp.window = f.client_window;
    }

    // TCP timestamps (RFC 7323) add 12 option bytes to every segment and
    // raise the data offset from 5 to 8 words.
    const std::uint8_t base_offset = f.tcp_timestamps ? 8 : 5;
    const std::uint16_t base_header =
        static_cast<std::uint16_t>(20 + base_offset * 4);
    pkt.tcp.data_offset = base_offset;

    switch (f.stage) {
      case 0:  // client SYN: MSS/SACK/wscale(/timestamp) options
        pkt.tcp.set(TcpFlag::kSyn);
        pkt.tcp.ack = 0;
        pkt.tcp.data_offset = 10;
        pkt.ip.total_length = 60;
        f.stage = 1;
        break;
      case 1:  // server SYN-ACK
        pkt.tcp.set(TcpFlag::kSyn);
        pkt.tcp.set(TcpFlag::kAck);
        pkt.tcp.data_offset = 10;
        pkt.ip.total_length = 60;
        f.server_seq += 1;
        f.stage = 2;
        break;
      case 2:  // client ACK completing the handshake
        pkt.tcp.set(TcpFlag::kAck);
        pkt.ip.total_length = base_header;
        f.client_seq += 1;
        f.stage = 3;
        break;
      case 3: {  // established: data or pure ACK
        pkt.tcp.set(TcpFlag::kAck);
        const bool data = (rng() % 100) < 70;
        if (data) {
          pkt.tcp.set(TcpFlag::kPsh, (rng() % 100) < 40);
          // MTU-sized segments dominate; some small app writes.
          const std::uint16_t payload =
              (rng() % 100) < 75
                  ? static_cast<std::uint16_t>(1500 - base_header)
                  : static_cast<std::uint16_t>(80 + rng() % 900);
          pkt.ip.total_length = static_cast<std::uint16_t>(base_header + payload);
          if (from_server) {
            f.server_seq += payload;
          } else {
            f.client_seq += payload;
          }
        } else {
          pkt.ip.total_length = base_header;
        }
        if (f.remaining_data_pkts == 0 || --f.remaining_data_pkts == 0) {
          f.stage = 4;
        }
        break;
      }
      case 4:  // client FIN
        pkt.tcp.set(TcpFlag::kFin);
        pkt.tcp.set(TcpFlag::kAck);
        pkt.ip.total_length = base_header;
        f.client_seq += 1;
        f.stage = 5;
        break;
      case 5:  // server FIN-ACK; flow slot is recycled afterwards
      default:
        pkt.tcp.set(TcpFlag::kFin);
        pkt.tcp.set(TcpFlag::kAck);
        pkt.ip.total_length = base_header;
        f = fresh_flow();
        break;
    }
    return pkt;
  }

  [[nodiscard]] PacketRecord next_packet() {
    now = next_time;
    next_time += interarrival(rng);
    ++emitted;
    if (profile.drift_interval_packets > 0 &&
        emitted % profile.drift_interval_packets == 0) {
      retilt();
    }
    Flow& f = flows[rng() % flows.size()];
    return emit(f);
  }
};

BackgroundTraffic::BackgroundTraffic(TraceProfile profile, std::uint64_t seed)
    : impl_(std::make_unique<Impl>(std::move(profile), seed)) {}

BackgroundTraffic::~BackgroundTraffic() = default;
BackgroundTraffic::BackgroundTraffic(BackgroundTraffic&&) noexcept = default;
BackgroundTraffic& BackgroundTraffic::operator=(BackgroundTraffic&&) noexcept =
    default;

double BackgroundTraffic::peek_time() const { return impl_->next_time; }

PacketRecord BackgroundTraffic::next() { return impl_->next_packet(); }

const TraceProfile& BackgroundTraffic::profile() const noexcept {
  return impl_->profile;
}

TraceProfile trace1_profile() {
  TraceProfile p;
  p.name = "trace1";
  p.packets_per_second = 50000.0;
  p.concurrent_flows = 256;
  p.pareto_alpha = 1.3;
  p.service_ports = {
      {443, 46.0}, {80, 30.0}, {22, 4.0},   {25, 3.0},  {993, 3.0},
      {8080, 3.0}, {53, 2.0},  {3306, 2.0}, {21, 2.0},  {110, 1.5},
      {143, 1.5},  {123, 1.0}, {5222, 1.0},
  };
  return p;
}

TraceProfile trace2_profile() {
  TraceProfile p;
  p.name = "trace2";
  p.packets_per_second = 50000.0;
  p.concurrent_flows = 320;
  p.pareto_alpha = 1.15;  // heavier elephant tail
  p.service_ports = {
      {443, 52.0}, {80, 24.0}, {22, 3.0},  {25, 2.0},  {993, 4.0},
      {8080, 2.0}, {53, 3.0},  {3306, 1.0}, {21, 1.0}, {110, 1.0},
      {143, 2.0},  {1935, 2.0}, {6881, 3.0},
  };
  return p;
}

TraceProfile profile_from_packets(
    const std::vector<packet::PacketRecord>& packets) {
  if (packets.size() < 100) {
    throw std::invalid_argument(
        "profile_from_packets: need at least 100 packets to calibrate");
  }
  TraceProfile profile = trace1_profile();
  profile.name = "from_pcap";

  // Packet rate from the capture's span.
  const double span = packets.back().timestamp - packets.front().timestamp;
  if (span > 0.0) {
    profile.packets_per_second =
        static_cast<double>(packets.size()) / span;
  }

  // Service-port mix: the lower of (src, dst) port is almost always the
  // service side; count below-ephemeral ports plus common alt-ports.
  std::unordered_map<std::uint16_t, double> port_weight;
  for (const auto& pkt : packets) {
    const std::uint16_t service =
        std::min(pkt.tcp.src_port, pkt.tcp.dst_port);
    if (service == 0 || service >= 32768) continue;
    port_weight[service] += 1.0;
  }
  if (!port_weight.empty()) {
    profile.service_ports.clear();
    for (const auto& [port, weight] : port_weight) {
      // Keep ports carrying at least 0.2% of the observed traffic.
      if (weight >= 0.002 * static_cast<double>(packets.size())) {
        profile.service_ports.emplace_back(port, weight);
      }
    }
    if (profile.service_ports.empty()) {
      profile.service_ports = trace1_profile().service_ports;
    }
  }

  // Flow pool: distinct 4-tuples, bounded to a practical range.
  std::unordered_map<packet::FlowKey, bool, packet::FlowKeyHash> flows;
  for (const auto& pkt : packets) flows.emplace(pkt.flow(), true);
  profile.concurrent_flows =
      std::clamp<std::size_t>(flows.size() / 4, 64, 4096);
  return profile;
}

std::vector<PacketRecord> take(PacketSource& source, std::size_t count) {
  std::vector<PacketRecord> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(source.next());
  return out;
}

}  // namespace jaal::trace
