#ifndef DCS_OBS_EXPORTER_H_
#define DCS_OBS_EXPORTER_H_

#include <ostream>
#include <string>

#include "common/status.h"
#include "obs/metrics.h"

namespace dcs {

/// \brief Serializes a snapshot as JSON lines — one self-contained JSON
/// object per metric per line, so epoch snapshots can be appended to one
/// file and grepped/jq'd without a streaming parser.
///
/// Formats (field order fixed; see docs/OBSERVABILITY.md):
///   {"epoch":3,"name":"...","type":"counter","value":12}
///   {"epoch":3,"name":"...","type":"gauge","value":0.5132}
///   {"epoch":3,"name":"...","type":"histogram","count":8,"sum":91,
///    "p50":15,"p99":31,"buckets":[[8,5],[16,3]]}
/// Histogram buckets are (lower bound, count) pairs for every non-empty
/// log2 bucket; p50/p99 are bucket upper bounds.
std::string SnapshotToJsonLines(const MetricsSnapshot& snapshot);

/// Writes SnapshotToJsonLines(snapshot) to `path`, replacing the file: the
/// one way tools and benches save a snapshot. IoError when it cannot.
Status WriteSnapshotFile(const MetricsSnapshot& snapshot,
                         const std::string& path);

/// Parses text produced by SnapshotToJsonLines back into a snapshot
/// (exporter round-trip; also lets tools re-read their own dumps). Lines
/// must carry a uniform "epoch". Unknown fields are ignored.
Status ParseJsonLines(const std::string& text, MetricsSnapshot* out);

/// Renders the snapshot as a human TablePrinter summary: histograms get
/// count/mean/p50/p99 columns with nanosecond metrics scaled to a readable
/// unit.
void PrintSnapshotTable(const MetricsSnapshot& snapshot, std::ostream& os);

/// "1.23 ms"-style rendering for nanosecond quantities.
std::string FormatNanos(double nanos);

}  // namespace dcs

#endif  // DCS_OBS_EXPORTER_H_
