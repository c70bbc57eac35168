// Core entity types of the simulated Internet.
//
// Ground truth about who is anycast lives here (DeploymentKind et al.) and
// is consulted only by the simulator's routing and by analysis code playing
// the role of operator ground truth — never by measurement code (DESIGN.md
// decision 4).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geo/cities.hpp"
#include "net/address.hpp"
#include "net/responder.hpp"

namespace laces::topo {

/// Dense index of an AS in the AsGraph (not the public ASN).
using AsId = std::uint32_t;
/// Public autonomous-system number (for display / Table 6).
using Asn = std::uint32_t;
/// Index of an organization (operator) in the World.
using OrgId = std::uint32_t;
/// Index of a deployment (one announced service prefix) in the World.
using DeploymentId = std::uint32_t;

inline constexpr AsId kNoAs = ~AsId{0};

/// DeploymentIds at or above this value are transient pseudo-deployments
/// (SimNetwork's view of a locally announced address, derived from the
/// address hash). Their PoP sets change on attach/detach, so per-deployment
/// routing caches must skip them; real World deployments always sit below.
inline constexpr DeploymentId kPseudoDeploymentIdBase = 0x40000000u;

/// Where a host or PoP physically and topologically sits.
struct AttachPoint {
  geo::CityId city = 0;
  AsId upstream = 0;  // transit AS providing connectivity here

  friend bool operator==(const AttachPoint&, const AttachPoint&) = default;
};

/// One point of presence of a deployment.
struct Pop {
  AttachPoint attach;
  /// RFC 4892 CHAOS identities disclosed by nameservers at this PoP.
  /// Usually one value; colocated servers behind one site may expose
  /// several (the "auth1"/"auth2" weak-indicator case of §5.3.1) — the
  /// simulator rotates across them per query.
  std::vector<std::string> chaos_values;
};

/// The behavioural taxonomy the evaluation needs (paper §5).
enum class DeploymentKind : std::uint8_t {
  kUnicast,           // one PoP, one location
  kAnycastGlobal,     // replicated worldwide (hypergiants, DNS roots, ...)
  kAnycastRegional,   // replicated within one small region (ccTLD-style)
  kGlobalBgpUnicast,  // announced at many PoPs, served from one location
                      // (Microsoft-style, §5.1.3); ingress PoP handles the
                      // response path, so the anycast-based method sees
                      // multiple VPs while GCD correctly sees unicast
  kTemporaryAnycast,  // anycast only on some days (Imperva-style, §5.6/§5.7)
};

/// Whether a kind is "really anycast" for ground-truth labelling on a day.
bool is_anycast_ground_truth(DeploymentKind kind, bool temporary_active);

/// A service deployment: one logical prefix announced from `pops`.
struct Deployment {
  DeploymentId id = 0;
  OrgId org = 0;
  DeploymentKind kind = DeploymentKind::kUnicast;
  std::vector<Pop> pops;
  /// SoA mirror of pops[i].attach for the catchment scan hot loop
  /// (RoutingModel::scan_pops): city and upstream ids packed into two
  /// contiguous uint16 arrays (both id spaces fit 16 bits, asserted at
  /// RoutingModel construction), so a scan over thousands of PoPs streams
  /// 4 bytes per PoP instead of striding over Pop objects that drag each
  /// chaos_values vector header through the cache. Rebuilt by
  /// finalize_layout(), which must run before the deployment is routed
  /// (the scan checks the sizes match `pops`).
  std::vector<std::uint16_t> pop_city;
  std::vector<std::uint16_t> pop_upstream;
  /// kGlobalBgpUnicast: index into `pops` of the real (home) server site.
  std::size_t home_pop = 0;
  /// kTemporaryAnycast: period (days) and phase of the active window.
  std::uint32_t temp_period_days = 7;
  std::uint32_t temp_active_days = 2;
  std::uint32_t temp_phase = 0;

  /// True if the deployment behaves as anycast on `day`.
  bool anycast_active(std::uint32_t day) const;
  /// PoPs announcing the prefix on `day` (temporary anycast collapses to
  /// its home PoP on inactive days).
  std::size_t active_pop_count(std::uint32_t day) const;
  /// Rebuild the SoA attach arrays from `pops`. Call after the PoP set is
  /// final and before routing (WorldBuilder does; SimNetwork does on
  /// attach/detach; hand-built deployments must too).
  void finalize_layout();
};

/// An operator (Table 6 row): owns deployments, has a public ASN.
struct Org {
  OrgId id = 0;
  std::string name;
  Asn asn = 0;
};

/// One probeable address and the deployment serving it.
///
/// Census granularity is the /24 (or /48) the address sits in; partial
/// anycast (§5.6) arises when two targets in the same /24 map to different
/// deployments.
struct Target {
  net::IpAddress address;
  DeploymentId deployment = 0;
  net::ResponderConfig responder;
  /// True if this address is the hitlist representative of its prefix.
  bool representative = true;
  /// Backing-anycast traffic engineering (Fastly-style, §5.8.2): if set,
  /// vantage points whose AS filters the specific announcement reach this
  /// fallback anycast deployment instead.
  std::optional<DeploymentId> backing_deployment;
};

/// A BGP-announced prefix (may be less specific than the census /24
/// granularity), for the BGPTools comparison (Table 7) and prefix2as-style
/// analysis (§5.6).
struct BgpAnnouncement {
  net::Ipv4Prefix prefix;
  OrgId origin = 0;
};

/// IPv6 BGP announcement (§5.7's v6 BGPTools comparison; may be less
/// specific than the /48 census granularity).
struct BgpAnnouncementV6 {
  net::Ipv6Prefix prefix;
  OrgId origin = 0;
};

}  // namespace laces::topo
