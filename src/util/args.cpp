#include "util/args.hpp"

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>

namespace wrt::util {
namespace {

/// Parses all of `text` as a T; nullopt on junk, overflow or emptiness.
template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

}  // namespace

Args::Args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) continue;
    token = token.substr(2);
    const auto equals = token.find('=');
    if (equals != std::string::npos) {
      values_[token.substr(0, equals)] = token.substr(equals + 1);
      continue;
    }
    // `--name value` when the next token is not itself a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[token] = argv[i + 1];
      ++i;
    } else {
      values_[token] = "";
    }
  }
}

bool Args::has(const std::string& name) const {
  queried_[name] = true;
  return values_.contains(name);
}

const std::string* Args::numeric_value(const std::string& name) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return nullptr;
  return &it->second;
}

std::int64_t Args::get_int(const std::string& name,
                           std::int64_t fallback) const {
  const std::string* text = numeric_value(name);
  if (text == nullptr) return fallback;
  const auto value = parse_whole<std::int64_t>(*text);
  if (!value) {
    malformed_.insert(name);
    return fallback;
  }
  return *value;
}

double Args::get_double(const std::string& name, double fallback) const {
  const std::string* text = numeric_value(name);
  if (text == nullptr) return fallback;
  const auto value = parse_whole<double>(*text);
  if (!value || !std::isfinite(*value)) {
    malformed_.insert(name);
    return fallback;
  }
  return *value;
}

std::string Args::get_string(const std::string& name,
                             std::string fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second;
}

std::vector<std::int64_t> Args::get_int_list(
    const std::string& name, std::vector<std::int64_t> fallback) const {
  const std::string* text = numeric_value(name);
  if (text == nullptr) return fallback;
  std::vector<std::int64_t> result;
  std::string_view rest = *text;
  while (true) {
    const std::size_t comma = rest.find(',');
    const std::string_view piece = rest.substr(0, comma);
    if (!piece.empty()) {
      const auto value = parse_whole<std::int64_t>(piece);
      if (!value) {
        malformed_.insert(name);
        return fallback;
      }
      result.push_back(*value);
    }
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return result.empty() ? fallback : result;
}

std::vector<std::string> Args::unknown_flags() const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : values_) {
    if (!queried_.contains(name)) unknown.push_back(name);
  }
  return unknown;
}

std::vector<std::string> Args::malformed_flags() const {
  return {malformed_.begin(), malformed_.end()};
}

}  // namespace wrt::util
