// SLIT-style distance tables — what "numactl --hardware" prints.
//
// Firmware exports the ACPI System Locality Information Table: relative
// distances normalized to 10 for local access. Linux derives them from
// hop counts, which is exactly why the paper calls them "often inaccurate"
// ([18], §II-B): they cannot express directional asymmetry or the
// PIO/DMA path split. slit_table() builds the table the way firmware
// does (hop-based), so model::hop_explanation_score() is also its score
// against a measured bandwidth matrix.
#pragma once

#include <string>
#include <vector>

#include "topo/routing.h"

namespace numaio::nm {

/// Firmware-style SLIT: 10 on the diagonal, 10 + 10 * hops elsewhere.
std::vector<std::vector<int>> slit_table(const topo::Topology& topo);

/// numactl-style rendering of the table ("node distances:" block).
std::string render_slit(const std::vector<std::vector<int>>& slit);

}  // namespace numaio::nm
