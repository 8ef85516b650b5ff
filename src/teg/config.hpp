// Array configuration: the C(g1, g2, ..., gn) of Algorithms 1 and 2.
//
// A configuration partitions the N path-ordered modules into n contiguous
// groups; modules inside a group are wired in parallel and the groups are
// chained in series.  Following the paper, a configuration is stored as the
// ordered list of each group's first module index (g1 = 0 always, using
// 0-based indexing internally where the paper is 1-based).
#pragma once

#include <cstddef>
#include <vector>

namespace tegrec::teg {

class ArrayConfig {
 public:
  ArrayConfig() = default;
  /// `group_starts` must begin with 0 and be strictly increasing with all
  /// entries < num_modules; throws std::invalid_argument otherwise.
  ArrayConfig(std::vector<std::size_t> group_starts, std::size_t num_modules);

  /// n equal (or near-equal) groups: the fixed r x c baseline topologies.
  /// With num_modules=100, n=10 this is the paper's 10 x 10 baseline.
  static ArrayConfig uniform(std::size_t num_modules, std::size_t num_groups);
  /// All modules in one parallel group.
  static ArrayConfig all_parallel(std::size_t num_modules);
  /// Every module its own group (full series chain).
  static ArrayConfig all_series(std::size_t num_modules);

  std::size_t num_modules() const { return num_modules_; }
  std::size_t num_groups() const { return starts_.size(); }
  const std::vector<std::size_t>& group_starts() const { return starts_; }

  /// First module index of group j.
  std::size_t group_begin(std::size_t j) const;
  /// One-past-last module index of group j.
  std::size_t group_end(std::size_t j) const;

  /// True if the adjacency between modules i and i+1 is a series boundary
  /// (the S_S,i switch closed); false means parallel (S_PT/S_PB closed).
  bool is_series_boundary(std::size_t i) const;

  /// Number of adjacencies whose connection type differs from `other`
  /// (same num_modules required).  Each differing adjacency re-actuates all
  /// three switches of that cell in the fabric.
  std::size_t boundary_distance(const ArrayConfig& other) const;

  bool operator==(const ArrayConfig& other) const = default;

 private:
  std::vector<std::size_t> starts_;
  std::size_t num_modules_ = 0;
};

}  // namespace tegrec::teg
