#ifndef DCS_DCS_REPORT_H_
#define DCS_DCS_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dcs {

/// \brief Detection thresholds recomputed for the routers that actually
/// reported (degraded-mode analysis, docs/ROBUSTNESS.md).
///
/// The paper's threshold analysis (Eq 1 for aligned, Eqs 2-3 for unaligned)
/// is parameterized by the matrix height m. When the collection network
/// drops or the monitor quarantines routers, the epoch is analyzed with
/// m' < m rows, and the natural-occurrence / detectability curves move. The
/// monitor recomputes them for the observed m' so every report states the
/// evidence bar it was actually held to.
struct EpochCalibration {
  /// Routers configured (IngestOptions::expected_routers; 0 = adaptive) and
  /// actually contributing to this analysis.
  std::uint32_t expected_routers = 0;
  std::uint32_t observed_routers = 0;
  /// True when 0 < observed < expected: thresholds below are for the smaller
  /// matrix. A pipeline no router fed this epoch is idle, not degraded.
  bool degraded = false;

  // Aligned pipeline, at m' = observed_routers rows.
  /// Smallest column count b whose m' x b all-1 submatrix passes the
  /// non-naturally-occurring gate (Eq 1); -1 when not computable.
  std::int64_t aligned_min_nno_columns = -1;
  /// Smallest pattern width detectable with the configured target
  /// probability after screening (Section V-A.2); -1 when none.
  std::int64_t aligned_detectable_columns = -1;

  // Unaligned pipeline, with n = observed groups vertices.
  /// Co-tuned null edge probability and edge-count threshold (Eqs 2-3).
  double unaligned_p1 = 0.0;
  std::int64_t unaligned_d = 0;
  /// Smallest non-naturally-occurring cluster size; -1 when none up to the
  /// configured search bound.
  std::int64_t unaligned_min_cluster = -1;

  /// True when any calibration was actually computed — reports only
  /// serialize the calibration when a hardened monitor filled it in, so
  /// pre-hardening report output (and its golden tests) is unchanged.
  [[nodiscard]] bool populated() const {
    return observed_routers > 0 || expected_routers > 0;
  }

  [[nodiscard]] std::string ToString() const;

  friend bool operator==(const EpochCalibration&,
                         const EpochCalibration&) = default;
};

/// Identity of one sketch group at the analysis center.
struct GroupRef {
  std::uint32_t router_id = 0;
  std::uint32_t group_index = 0;

  friend bool operator==(const GroupRef&, const GroupRef&) = default;
};

/// Analysis-center verdict for the aligned pipeline.
struct AlignedReport {
  /// Whether a non-naturally-occurring all-1 submatrix was found.
  bool common_content_detected = false;
  /// Routers whose bitmaps form the pattern rows.
  std::vector<std::uint32_t> routers;
  /// Bitmap indices (columns) of the pattern — the hashed signature of the
  /// common content's packets.
  std::vector<std::size_t> signature_columns;
  /// Matrix shape analyzed.
  std::size_t matrix_rows = 0;
  std::size_t matrix_cols = 0;
  /// Thresholds in force for this epoch (filled by hardened monitors;
  /// serialized only when populated()).
  EpochCalibration calibration;

  [[nodiscard]] std::string ToString() const;

  /// Machine-readable form for downstream alerting systems.
  [[nodiscard]] std::string ToJson() const;

  /// Field-wise equality — the differential soak suites compare whole
  /// reports across thread counts and ring configurations.
  friend bool operator==(const AlignedReport&, const AlignedReport&) = default;
};

/// Analysis-center verdict for the unaligned pipeline.
struct UnalignedReport {
  /// ER-test outcome: largest connected component vs threshold.
  std::size_t largest_component = 0;
  std::size_t er_threshold = 0;
  bool common_content_detected = false;
  /// Groups identified by core finding (only meaningful when detected).
  std::vector<GroupRef> groups;
  /// The detected groups split into per-content clusters (Section II-D);
  /// one cluster per distinct common content, largest first.
  std::vector<std::vector<GroupRef>> clusters;
  /// Distinct routers among those groups — who to contact for packet logs
  /// (the paper's "external means").
  std::vector<std::uint32_t> routers;
  /// Graph shape analyzed.
  std::size_t num_vertices = 0;
  std::size_t num_edges = 0;
  /// Thresholds in force for this epoch (filled by hardened monitors;
  /// serialized only when populated()).
  EpochCalibration calibration;

  [[nodiscard]] std::string ToString() const;

  /// Machine-readable form for downstream alerting systems.
  [[nodiscard]] std::string ToJson() const;

  /// Field-wise equality — the differential soak suites compare whole
  /// reports across thread counts and ring configurations.
  friend bool operator==(const UnalignedReport&,
                         const UnalignedReport&) = default;
};

}  // namespace dcs

#endif  // DCS_DCS_REPORT_H_
