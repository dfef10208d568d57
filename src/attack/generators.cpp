#include "attack/generators.hpp"

#include <stdexcept>

namespace jaal::attack {

using packet::AttackType;
using packet::PacketRecord;
using packet::TcpFlag;

namespace {

/// Rejects a config the source cannot run; it checks before the members are
/// built because the interarrival distribution needs a positive rate.
const AttackConfig& validated(const AttackConfig& cfg) {
  if (cfg.packets_per_second <= 0.0) {
    throw std::invalid_argument("AttackSource: non-positive rate");
  }
  if (cfg.source_count == 0) {
    throw std::invalid_argument("AttackSource: need at least one source");
  }
  return cfg;
}

}  // namespace

AttackSource::AttackSource(const AttackConfig& cfg)
    : cfg_(validated(cfg)),
      rng_(cfg.seed),
      interarrival_(cfg.packets_per_second),
      next_time_(cfg.start_time) {
  sources_.reserve(cfg.source_count);
  for (std::size_t i = 0; i < cfg.source_count; ++i) {
    // One host per distinct /16 so attack flows enter via different edges.
    const auto subnet = static_cast<std::uint16_t>(rng_() % 60000 + 1024);
    const auto host = static_cast<std::uint16_t>(rng_() % 65000 + 2);
    sources_.push_back((std::uint32_t{subnet} << 16) | host);
  }
  next_time_ += interarrival_(rng_);
}

PacketRecord AttackSource::next() {
  PacketRecord pkt;
  pkt.timestamp = next_time_;
  next_time_ += interarrival_(rng_);
  pkt.ip.flags = 2;  // DF
  pkt.ip.ttl = static_cast<std::uint8_t>(48 + rng_() % 16);
  pkt.ip.identification = static_cast<std::uint16_t>(rng_());
  fill(pkt);
  return pkt;
}

// --- SynFlood -------------------------------------------------------------

SynFlood::SynFlood(const AttackConfig& cfg, std::uint16_t victim_port)
    : AttackSource(cfg), victim_port_(victim_port) {
  attacker_ip_ = random_source();
}

void SynFlood::fill(PacketRecord& pkt) {
  pkt.label = AttackType::kSynFlood;
  pkt.ip.src_ip = attacker_ip_;
  pkt.ip.dst_ip = cfg_.victim_ip;
  pkt.ip.total_length = 40;
  pkt.tcp.src_port = static_cast<std::uint16_t>(1024 + rng_() % 64000);
  pkt.tcp.dst_port = victim_port_;
  pkt.tcp.seq = static_cast<std::uint32_t>(rng_());
  pkt.tcp.ack = 0;
  pkt.tcp.set(TcpFlag::kSyn);
  pkt.tcp.window = 512;  // hping3-style fixed small window
}

// --- DistributedSynFlood ---------------------------------------------------

DistributedSynFlood::DistributedSynFlood(const AttackConfig& cfg,
                                         std::uint16_t victim_port)
    : AttackSource(cfg), victim_port_(victim_port) {}

void DistributedSynFlood::fill(PacketRecord& pkt) {
  pkt.label = AttackType::kDistributedSynFlood;
  pkt.ip.src_ip = random_source();
  pkt.ip.dst_ip = cfg_.victim_ip;
  pkt.ip.total_length = 40;
  pkt.tcp.src_port = static_cast<std::uint16_t>(1024 + rng_() % 64000);
  pkt.tcp.dst_port = victim_port_;
  pkt.tcp.seq = static_cast<std::uint32_t>(rng_());
  pkt.tcp.ack = 0;
  pkt.tcp.set(TcpFlag::kSyn);
  pkt.tcp.window = 512;
}

// --- MimicrySynFlood ---------------------------------------------------------

MimicrySynFlood::MimicrySynFlood(const AttackConfig& cfg,
                                 std::uint16_t victim_port)
    : AttackSource(cfg), victim_port_(victim_port) {}

void MimicrySynFlood::fill(PacketRecord& pkt) {
  pkt.label = AttackType::kDistributedSynFlood;
  pkt.ip.src_ip = random_source();
  pkt.ip.dst_ip = cfg_.victim_ip;
  pkt.tcp.src_port = static_cast<std::uint16_t>(32768 + rng_() % 28232);
  pkt.tcp.dst_port = victim_port_;
  pkt.tcp.seq = static_cast<std::uint32_t>(rng_());
  pkt.tcp.ack = 0;
  pkt.tcp.set(TcpFlag::kSyn);
  // Mimicry: everything a real client SYN would carry.
  pkt.ip.total_length = 60;          // SYN with options
  pkt.tcp.data_offset = 10;
  pkt.ip.ttl = static_cast<std::uint8_t>(64 - 4 - rng_() % 18);
  constexpr std::uint16_t kBenignSynWindows[] = {29200, 64240, 8192, 4128};
  pkt.tcp.window = kBenignSynWindows[rng_() % std::size(kBenignSynWindows)];
}

// --- PortScan ---------------------------------------------------------------

PortScan::PortScan(const AttackConfig& cfg) : AttackSource(cfg) {}

const std::vector<std::uint16_t>& PortScan::nmap_default_ports() {
  // The most common service ports Nmap probes by default (subset of its
  // top-1000 frequency list, nmap-services).
  static const std::vector<std::uint16_t> kPorts = {
      1,     3,     7,     9,     13,    17,    19,    21,    22,    23,
      25,    26,    37,    53,    79,    80,    81,    88,    106,   110,
      111,   113,   119,   135,   139,   143,   144,   179,   199,   389,
      427,   443,   444,   445,   465,   513,   514,   515,   543,   544,
      548,   554,   587,   631,   646,   873,   990,   993,   995,   1025,
      1026,  1027,  1028,  1029,  1110,  1433,  1720,  1723,  1755,  1900,
      2000,  2001,  2049,  2121,  2717,  3000,  3128,  3306,  3389,  3986,
      4899,  5000,  5009,  5051,  5060,  5101,  5190,  5357,  5432,  5631,
      5666,  5800,  5900,  6000,  6001,  6646,  7070,  8000,  8008,  8009,
      8080,  8081,  8443,  8888,  9100,  9999,  10000, 32768, 49152, 49153,
      49154, 49155, 49156, 49157,
  };
  return kPorts;
}

void PortScan::fill(PacketRecord& pkt) {
  const auto& ports = nmap_default_ports();
  pkt.label = AttackType::kPortScan;
  pkt.ip.src_ip = random_source();
  pkt.ip.dst_ip = cfg_.victim_ip;
  pkt.ip.total_length = 44;  // Nmap SYN probe carries 4 bytes of options
  pkt.tcp.src_port = static_cast<std::uint16_t>(32768 + rng_() % 28000);
  pkt.tcp.dst_port = ports[cursor_++ % ports.size()];
  pkt.tcp.seq = static_cast<std::uint32_t>(rng_());
  pkt.tcp.ack = 0;
  pkt.tcp.set(TcpFlag::kSyn);
  pkt.tcp.window = 1024;  // Nmap default SYN-scan window
}

// --- SshBruteForce ----------------------------------------------------------

SshBruteForce::SshBruteForce(const AttackConfig& cfg)
    : AttackSource(cfg), state_(cfg.source_count) {}

void SshBruteForce::fill(PacketRecord& pkt) {
  const std::size_t idx = rng_() % sources().size();
  SourceState& st = state_[idx];
  pkt.label = AttackType::kSshBruteForce;
  pkt.ip.src_ip = sources()[idx];
  pkt.ip.dst_ip = cfg_.victim_ip;
  pkt.tcp.src_port = static_cast<std::uint16_t>(32768 + (idx * 7) % 28000);
  pkt.tcp.dst_port = 22;
  pkt.tcp.window = 29200;
  switch (st.stage) {
    case 0:  // new connection attempt
      pkt.tcp.set(TcpFlag::kSyn);
      pkt.ip.total_length = 60;
      st.seq = static_cast<std::uint32_t>(rng_());
      pkt.tcp.seq = st.seq;
      pkt.tcp.ack = 0;
      st.stage = 1;
      break;
    case 1:  // handshake-completing ACK
      pkt.tcp.set(TcpFlag::kAck);
      pkt.ip.total_length = 40;
      st.seq += 1;
      pkt.tcp.seq = st.seq;
      pkt.tcp.ack = static_cast<std::uint32_t>(rng_());
      st.stage = 2;
      break;
    default: {  // banner/auth data: "SSH-..." then password guess
      pkt.tcp.set(TcpFlag::kPsh);
      pkt.tcp.set(TcpFlag::kAck);
      const std::uint16_t payload = static_cast<std::uint16_t>(48 + rng_() % 48);
      pkt.ip.total_length = static_cast<std::uint16_t>(40 + payload);
      pkt.tcp.seq = st.seq;
      pkt.tcp.ack = static_cast<std::uint32_t>(rng_());
      st.seq += payload;
      // After a failed guess the server drops us; retry with a new SYN.
      st.stage = (st.stage >= 3) ? 0 : st.stage + 1;
      break;
    }
  }
}

// --- Sockstress -------------------------------------------------------------

Sockstress::Sockstress(const AttackConfig& cfg, std::uint16_t victim_port)
    : AttackSource(cfg), victim_port_(victim_port), state_(cfg.source_count) {
  // Sockstress holds connections open indefinitely: by the time a monitor
  // looks, nearly every source is past its handshake and trickling
  // zero-window probes.  Start the pool in that steady state.
  for (std::size_t i = 0; i < state_.size(); ++i) {
    state_[i].stage = 1 + static_cast<int>(i % 6);
    state_[i].seq = static_cast<std::uint32_t>(rng_());
  }
}

void Sockstress::fill(PacketRecord& pkt) {
  const std::size_t idx = rng_() % sources().size();
  SourceState& st = state_[idx];
  pkt.label = AttackType::kSockstress;
  pkt.ip.src_ip = sources()[idx];
  pkt.ip.dst_ip = cfg_.victim_ip;
  pkt.tcp.src_port = static_cast<std::uint16_t>(1024 + (idx * 13) % 60000);
  pkt.tcp.dst_port = victim_port_;
  pkt.ip.total_length = 40;
  switch (st.stage) {
    case 0:
      pkt.tcp.set(TcpFlag::kSyn);
      st.seq = static_cast<std::uint32_t>(rng_());
      pkt.tcp.seq = st.seq;
      pkt.tcp.ack = 0;
      pkt.tcp.window = 512;
      st.stage = 1;
      break;
    default:
      // The sockstress signature: established connection advertising a
      // zero receive window, forcing the server to hold state forever.
      pkt.tcp.set(TcpFlag::kAck);
      pkt.tcp.seq = ++st.seq;
      pkt.tcp.ack = static_cast<std::uint32_t>(rng_());
      pkt.tcp.window = 0;
      st.stage = (st.stage >= 6) ? 0 : st.stage + 1;  // occasionally reconnect
      break;
  }
}

}  // namespace jaal::attack
