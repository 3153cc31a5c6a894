// Package version numbers and version constraints, modelled on the subset of
// Spack's version semantics the paper's experiments exercise:
//
//   Version            "8.1.23", "2.7.15", "4.0.3rc1"
//   VersionConstraint  "@1.2.3" (exact), "@1.2:" (at least), "@:2" (at most),
//                      "@1.2:1.9" (range), "@=1.2" (exact, explicit), ""
//                      (any).  Prefix matching follows Spack: "@1.2" is
//                      satisfied by 1.2, 1.2.0, 1.2.9, ...
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rebench {

/// A concrete dotted version with an optional trailing alphanumeric suffix.
class Version {
 public:
  Version() = default;

  /// Parses "maj[.min[.patch...]][suffix]".  Throws ParseError on garbage.
  static Version parse(std::string_view text);

  /// Numeric components in order of significance.
  const std::vector<std::int64_t>& parts() const { return parts_; }

  /// Pre-release/suffix tag ("rc1", "a", ...), empty when absent.
  const std::string& suffix() const { return suffix_; }

  /// The original spelling ("4.0.01" keeps its leading zero).
  std::string toString() const;

  /// True when this version's components start with `prefix`'s components
  /// (Spack prefix semantics: 1.2.3 satisfies prefix 1.2).
  bool hasPrefix(const Version& prefix) const;

  /// Component-wise comparison; a missing component sorts before 0
  /// (1.2 < 1.2.0) and any suffix sorts before the plain release
  /// (1.2rc1 < 1.2).
  std::strong_ordering operator<=>(const Version& other) const;
  /// Equality is numeric: "4.0.01" == "4.0.1" (spelling is preserved for
  /// display only).
  bool operator==(const Version& other) const {
    return parts_ == other.parts_ && suffix_ == other.suffix_;
  }

 private:
  std::vector<std::int64_t> parts_;
  std::string suffix_;
  std::string text_;  // original spelling
};

/// A half-open constraint over versions: [low, high], either side optional.
class VersionConstraint {
 public:
  /// The unconstrained "any version".
  VersionConstraint() = default;

  /// Parses the text after '@': "1.2", "=1.2", "1.2:", ":1.9", "1.2:1.9".
  static VersionConstraint parse(std::string_view text);

  static VersionConstraint exactly(const Version& v);
  static VersionConstraint any() { return {}; }

  bool isAny() const { return !low_ && !high_ && !exact_; }

  bool satisfiedBy(const Version& v) const;

  /// Intersection of two constraints; nullopt when provably empty.
  std::optional<VersionConstraint> intersect(
      const VersionConstraint& other) const;

  /// String form without the leading '@'; empty for "any".
  std::string toString() const;

  bool operator==(const VersionConstraint& other) const = default;

 private:
  // exact_ means "this version or a prefix-extension of it" unless strict_.
  std::optional<Version> exact_;
  bool strict_ = false;  // "=1.2" disables prefix matching
  std::optional<Version> low_;
  std::optional<Version> high_;
};

}  // namespace rebench
