#include "fault/fault_plan.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <type_traits>

namespace wrt::fault {
namespace {

const char* control_msg_name(std::uint8_t msg) noexcept {
  switch (msg) {
    case kCtrlNextFree: return "next-free";
    case kCtrlJoinReq: return "join-req";
    case kCtrlJoinAck: return "join-ack";
    default: return "unknown";
  }
}

util::Error parse_error(std::size_t line_no, const std::string& what) {
  return util::Error::invalid_argument("FaultPlan line " +
                                       std::to_string(line_no) + ": " + what);
}

/// Reads a whole token as a number: no sign on unsigned fields, no
/// trailing characters, nothing out of the type's range, nothing
/// non-finite.
template <typename T>
bool parse_number(std::string_view token, T& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  if (ec != std::errc{} || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(out);
  return true;
}

/// Reads every remaining token as `key=value`.  `assign(key, value)`
/// returns nullopt for an unknown key, else whether the value parsed.
template <typename Assign>
util::Status read_params(std::istringstream& tokens, std::size_t line_no,
                         Assign assign) {
  std::string token;
  while (tokens >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
      return parse_error(line_no, "bad parameter '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::optional<bool> parsed =
        assign(key, std::string_view(token).substr(eq + 1));
    if (!parsed) {
      return parse_error(line_no, "unknown parameter '" + key + "'");
    }
    if (!*parsed) return parse_error(line_no, "bad value in '" + token + "'");
  }
  return util::Status::success();
}

}  // namespace

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kStall: return "stall";
    case FaultKind::kResume: return "resume";
    case FaultKind::kLeave: return "leave";
    case FaultKind::kLinkDegrade: return "link-degrade";
    case FaultKind::kLinkBreak: return "link-break";
    case FaultKind::kLinkHeal: return "link-heal";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kHealPartition: return "heal-partition";
    case FaultKind::kDropSat: return "drop-sat";
    case FaultKind::kDropControl: return "drop-control";
    case FaultKind::kJoin: return "join";
    case FaultKind::kFlap: return "flap";
    case FaultKind::kForceSwitch: return "force-switch";
    case FaultKind::kClearSwitch: return "clear-switch";
    case FaultKind::kMark: return "mark";
  }
  return "unknown";
}

std::string to_text(const FaultEvent& e) {
  std::ostringstream out;
  out << to_string(e.kind);
  switch (e.kind) {
    case FaultKind::kCrash:
    case FaultKind::kStall:
    case FaultKind::kResume:
    case FaultKind::kLeave:
    case FaultKind::kForceSwitch:
    case FaultKind::kClearSwitch:
      out << ' ' << e.a;
      break;
    case FaultKind::kLinkDegrade:
      out << ' ' << e.a << ' ' << e.b;
      if (e.ge.enabled()) {
        out << " avg=" << e.ge.average_loss()
            << " dwell="
            << (e.ge.p_bad_to_good > 0.0 ? 1.0 / e.ge.p_bad_to_good : 1.0)
            << " bad=" << e.ge.loss_bad;
      } else {
        // The form that parses back to a disabled (never-losing) override.
        out << " avg=0 dwell=1 bad=1";
      }
      break;
    case FaultKind::kLinkBreak:
    case FaultKind::kLinkHeal:
      out << ' ' << e.a << ' ' << e.b;
      break;
    case FaultKind::kPartition:
      for (std::size_t g = 0; g < e.groups.size(); ++g) {
        if (g != 0) out << " |";
        for (const NodeId node : e.groups[g]) out << ' ' << node;
      }
      break;
    case FaultKind::kHealPartition:
    case FaultKind::kDropSat:
      break;
    case FaultKind::kDropControl:
      out << ' ' << control_msg_name(e.control_msg);
      break;
    case FaultKind::kJoin:
      out << ' ' << e.a << " l=" << e.quota.l << " k=" << e.quota.k;
      break;
    case FaultKind::kFlap:
      out << ' ' << e.a << ' ' << e.b << " period=" << e.period_slots
          << " duty=" << e.duty_pct << " cycles=" << e.cycles;
      break;
    case FaultKind::kMark:
      out << ' ' << e.label;
      break;
  }
  return out.str();
}

void FaultPlan::add(FaultEvent event) {
  const auto at = std::upper_bound(
      events.begin(), events.end(), event.slot,
      [](std::int64_t slot, const FaultEvent& e) { return slot < e.slot; });
  events.insert(at, std::move(event));
}

std::string FaultPlan::to_text() const {
  std::string text;
  for (const FaultEvent& e : events) {
    text += '@' + std::to_string(e.slot) + ' ' + fault::to_text(e) + '\n';
  }
  return text;
}

util::Result<FaultPlan> FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream tokens(line);
    std::string head;
    if (!(tokens >> head) || head[0] == '#') continue;
    if (head[0] != '@' || head.size() < 2) {
      return parse_error(line_no, "expected '@<slot> <verb>'");
    }
    FaultEvent event;
    if (!parse_number(std::string_view(head).substr(1), event.slot)) {
      return parse_error(line_no, "bad slot '" + head + "'");
    }
    if (event.slot < 0) return parse_error(line_no, "negative slot");
    std::string verb;
    if (!(tokens >> verb)) return parse_error(line_no, "missing verb");

    const auto need_node = [&](NodeId& node) {
      std::string token;
      return static_cast<bool>(tokens >> token) && parse_number(token, node);
    };

    if (verb == "crash" || verb == "stall" || verb == "resume" ||
        verb == "leave" || verb == "force-switch" ||
        verb == "clear-switch") {
      event.kind = verb == "crash"          ? FaultKind::kCrash
                   : verb == "stall"        ? FaultKind::kStall
                   : verb == "resume"       ? FaultKind::kResume
                   : verb == "leave"        ? FaultKind::kLeave
                   : verb == "force-switch" ? FaultKind::kForceSwitch
                                            : FaultKind::kClearSwitch;
      if (!need_node(event.a)) return parse_error(line_no, "missing node");
    } else if (verb == "link-degrade") {
      event.kind = FaultKind::kLinkDegrade;
      if (!need_node(event.a) || !need_node(event.b)) {
        return parse_error(line_no, "link-degrade needs two endpoints");
      }
      double avg = 0.0;
      double dwell = 1.0;
      double bad = 1.0;
      const auto status = read_params(
          tokens, line_no,
          [&](const std::string& key,
              std::string_view value) -> std::optional<bool> {
            if (key == "avg") return parse_number(value, avg);
            if (key == "dwell") return parse_number(value, dwell);
            if (key == "bad") return parse_number(value, bad);
            return std::nullopt;
          });
      if (!status.ok()) return status.error();
      // Range-check the author's numbers before bursty() clamps them into
      // a solvable chain — a typo like avg=2.0 should be an error, not a
      // silently saturated channel.
      if (avg < 0.0 || avg > 1.0) {
        return parse_error(line_no, "avg must be in [0, 1]");
      }
      if (bad <= 0.0 || bad > 1.0) {
        return parse_error(line_no, "bad must be in (0, 1]");
      }
      if (avg > bad) {
        return parse_error(line_no,
                           "avg exceeds bad: stationary loss cannot exceed "
                           "the bad-state loss rate");
      }
      event.ge = GeParams::bursty(avg, dwell, bad);
      if (const auto valid = event.ge.validate(); !valid.ok()) {
        return parse_error(line_no, valid.error().message);
      }
    } else if (verb == "link-break" || verb == "link-heal") {
      event.kind = verb == "link-break" ? FaultKind::kLinkBreak
                                        : FaultKind::kLinkHeal;
      if (!need_node(event.a) || !need_node(event.b)) {
        return parse_error(line_no, verb + " needs two endpoints");
      }
    } else if (verb == "partition") {
      event.kind = FaultKind::kPartition;
      event.groups.emplace_back();
      std::string token;
      while (tokens >> token) {
        if (token == "|") {
          event.groups.emplace_back();
          continue;
        }
        NodeId node = kInvalidNode;
        if (!parse_number(token, node)) {
          return parse_error(line_no, "bad node '" + token + "'");
        }
        event.groups.back().push_back(node);
      }
      if (event.groups.size() < 2) {
        return parse_error(line_no, "partition needs at least two groups");
      }
      for (const auto& group : event.groups) {
        if (group.empty()) {
          return parse_error(line_no, "empty partition group");
        }
      }
    } else if (verb == "heal-partition") {
      event.kind = FaultKind::kHealPartition;
    } else if (verb == "drop-sat") {
      event.kind = FaultKind::kDropSat;
    } else if (verb == "drop-control") {
      event.kind = FaultKind::kDropControl;
      std::string which;
      if (!(tokens >> which)) {
        return parse_error(line_no, "drop-control needs a message name");
      }
      if (which == "next-free") {
        event.control_msg = kCtrlNextFree;
      } else if (which == "join-req") {
        event.control_msg = kCtrlJoinReq;
      } else if (which == "join-ack") {
        event.control_msg = kCtrlJoinAck;
      } else {
        return parse_error(line_no, "unknown control message '" + which +
                                        "'");
      }
    } else if (verb == "join") {
      event.kind = FaultKind::kJoin;
      if (!need_node(event.a)) return parse_error(line_no, "missing node");
      const auto status = read_params(
          tokens, line_no,
          [&](const std::string& key,
              std::string_view value) -> std::optional<bool> {
            if (key == "l") return parse_number(value, event.quota.l);
            if (key == "k") return parse_number(value, event.quota.k);
            return std::nullopt;
          });
      if (!status.ok()) return status.error();
    } else if (verb == "flap") {
      event.kind = FaultKind::kFlap;
      if (!need_node(event.a) || !need_node(event.b)) {
        return parse_error(line_no, "flap needs two endpoints");
      }
      const auto status = read_params(
          tokens, line_no,
          [&](const std::string& key,
              std::string_view value) -> std::optional<bool> {
            if (key == "period") return parse_number(value, event.period_slots);
            if (key == "duty") return parse_number(value, event.duty_pct);
            if (key == "cycles") return parse_number(value, event.cycles);
            return std::nullopt;
          });
      if (!status.ok()) return status.error();
      if (event.period_slots < 2) {
        return parse_error(line_no, "flap period must be >= 2 slots");
      }
      if (event.duty_pct < 1 || event.duty_pct > 99) {
        return parse_error(line_no, "flap duty must be in [1, 99] percent");
      }
      if (event.cycles < 1) {
        return parse_error(line_no, "flap needs cycles >= 1");
      }
    } else if (verb == "mark") {
      event.kind = FaultKind::kMark;
      std::getline(tokens, event.label);
      const std::size_t first = event.label.find_first_not_of(' ');
      event.label =
          first == std::string::npos ? "" : event.label.substr(first);
    } else {
      return parse_error(line_no, "unknown verb '" + verb + "'");
    }
    // Every branch above consumed what its verb takes (the key=value,
    // partition and mark forms take the rest of the line).
    if (std::string extra; tokens >> extra) {
      return parse_error(line_no, "unexpected '" + extra + "' after " + verb);
    }
    plan.add(std::move(event));
  }
  return plan;
}

util::Result<FaultPlan> FaultPlan::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return util::Error::not_found("FaultPlan::load: cannot open " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

util::Status FaultPlan::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return util::Error::invalid_argument("FaultPlan::save: cannot open " +
                                         path);
  }
  out << to_text();
  return out ? util::Status::success()
             : util::Error::invalid_argument("FaultPlan::save: write failed");
}

FaultPlan FaultPlan::random(std::uint64_t seed,
                            const RandomOptions& options) {
  util::RngStream rng(seed, 0xFA17);
  FaultPlan plan;
  const std::int64_t first = std::max<std::int64_t>(
      options.horizon_slots / 20, 1);
  const std::int64_t last = std::max(options.horizon_slots * 7 / 10, first);
  // Every stall/break/degrade/partition is undone by `settle` so the tail
  // of the horizon is fault-free and a recovery deadline can be asserted.
  const std::int64_t settle = std::max(options.horizon_slots * 9 / 10, last);

  std::vector<NodeId> alive;
  alive.reserve(options.n_stations);
  for (NodeId node = 0; node < options.n_stations; ++node) {
    alive.push_back(node);
  }
  std::vector<NodeId> parked = options.parked;
  bool partition_used = false;

  const auto take_alive = [&](util::RngStream& r) {
    const std::size_t i =
        static_cast<std::size_t>(r.uniform_int(alive.size()));
    const NodeId node = alive[i];
    alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(i));
    return node;
  };

  for (std::size_t e = 0; e < options.events; ++e) {
    const std::int64_t slot = rng.uniform_int(first, last);
    // Feasible kinds this round; uniform pick keeps the mix seed-driven.
    enum Choice : int {
      kChCrash,
      kChStall,
      kChLeave,
      kChDegrade,
      kChBreak,
      kChPartition,
      kChDropSat,
      kChJoin,
    };
    std::vector<int> feasible{kChDegrade, kChBreak, kChDropSat};
    if (alive.size() > options.min_alive) {
      feasible.push_back(kChCrash);
      feasible.push_back(kChLeave);
      feasible.push_back(kChStall);
    }
    if (!partition_used && options.n_stations >= 6) {
      feasible.push_back(kChPartition);
    }
    if (!parked.empty()) feasible.push_back(kChJoin);
    const int choice = feasible[static_cast<std::size_t>(
        rng.uniform_int(feasible.size()))];

    FaultEvent event;
    event.slot = slot;
    switch (choice) {
      case kChCrash:
        event.kind = FaultKind::kCrash;
        event.a = take_alive(rng);
        break;
      case kChLeave:
        event.kind = FaultKind::kLeave;
        event.a = take_alive(rng);
        break;
      case kChStall: {
        event.kind = FaultKind::kStall;
        // Remove from `alive` while stalled so a concurrent crash/leave
        // never targets the same station; restored by the resume below.
        const NodeId node = take_alive(rng);
        event.a = node;
        FaultEvent resume;
        resume.kind = FaultKind::kResume;
        resume.a = node;
        resume.slot = rng.uniform_int(slot + 1, settle);
        plan.add(std::move(resume));
        alive.push_back(node);
        break;
      }
      case kChDegrade: {
        event.kind = FaultKind::kLinkDegrade;
        event.a = static_cast<NodeId>(
            rng.uniform_int(static_cast<std::uint64_t>(options.n_stations)));
        do {
          event.b = static_cast<NodeId>(rng.uniform_int(
              static_cast<std::uint64_t>(options.n_stations)));
        } while (event.b == event.a);
        event.ge = GeParams::bursty(
            rng.uniform(0.05, 0.3),
            static_cast<double>(rng.uniform_int(2, 64)));
        FaultEvent heal;
        heal.kind = FaultKind::kLinkHeal;
        heal.a = event.a;
        heal.b = event.b;
        heal.slot = rng.uniform_int(slot + 1, settle);
        plan.add(std::move(heal));
        break;
      }
      case kChBreak: {
        event.kind = FaultKind::kLinkBreak;
        event.a = static_cast<NodeId>(
            rng.uniform_int(static_cast<std::uint64_t>(options.n_stations)));
        do {
          event.b = static_cast<NodeId>(rng.uniform_int(
              static_cast<std::uint64_t>(options.n_stations)));
        } while (event.b == event.a);
        FaultEvent heal;
        heal.kind = FaultKind::kLinkHeal;
        heal.a = event.a;
        heal.b = event.b;
        heal.slot = rng.uniform_int(slot + 1, settle);
        plan.add(std::move(heal));
        break;
      }
      case kChPartition: {
        event.kind = FaultKind::kPartition;
        partition_used = true;
        // Contiguous id split keeps each side ring-formable on the usual
        // circle placements.
        const std::size_t cut = static_cast<std::size_t>(
            rng.uniform_int(2, static_cast<std::int64_t>(
                                   options.n_stations - 2)));
        std::vector<NodeId> lo;
        std::vector<NodeId> hi;
        for (NodeId node = 0; node < options.n_stations; ++node) {
          (node < cut ? lo : hi).push_back(node);
        }
        event.groups = {std::move(lo), std::move(hi)};
        FaultEvent heal;
        heal.kind = FaultKind::kHealPartition;
        heal.slot = rng.uniform_int(slot + 1, settle);
        plan.add(std::move(heal));
        break;
      }
      case kChDropSat:
        event.kind = FaultKind::kDropSat;
        break;
      case kChJoin: {
        event.kind = FaultKind::kJoin;
        const std::size_t i =
            static_cast<std::size_t>(rng.uniform_int(parked.size()));
        event.a = parked[i];
        parked.erase(parked.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      default:
        event.kind = FaultKind::kMark;
        event.label = "unreachable";
        break;
    }
    plan.add(std::move(event));
  }

  // Flapping links ride in a second pass so that turning them on never
  // changes the draws — and hence the plan — the primary loop produced for
  // an existing seed.  Each flap targets the ring link between consecutive
  // ids (always a real hop on the circle placements) and finishes before
  // `settle` so the tail stays quiet.  The down window (period * duty) is
  // kept below the SAT_REC travel time on the small rings the chaos matrix
  // uses: a flap is the transient-blip stimulus the guard window / WTR
  // hold-off are specified against, not a hard outage (kLinkBreak covers
  // those in the primary pass).
  for (std::size_t f = 0; f < options.flap_events; ++f) {
    FaultEvent flap;
    flap.kind = FaultKind::kFlap;
    flap.a = static_cast<NodeId>(
        rng.uniform_int(static_cast<std::uint64_t>(options.n_stations)));
    flap.b = static_cast<NodeId>((flap.a + 1) % options.n_stations);
    flap.period_slots = rng.uniform_int(16, 48);
    flap.duty_pct = static_cast<std::uint32_t>(rng.uniform_int(25, 50));
    flap.cycles = static_cast<std::uint32_t>(rng.uniform_int(2, 6));
    flap.slot = rng.uniform_int(first, last);
    const std::int64_t budget = settle - flap.slot;
    const auto max_cycles = static_cast<std::uint32_t>(
        std::max<std::int64_t>(budget / flap.period_slots, 1));
    flap.cycles = std::min(flap.cycles, max_cycles);
    plan.add(std::move(flap));
  }
  return plan;
}

}  // namespace wrt::fault
