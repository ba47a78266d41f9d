// Content keys for stored campaign cells (DESIGN.md §11).
//
// A cell key canonically names everything the cell's result is a pure
// function of: schema version, topology + params, the derived build seed,
// the EFFECTIVE fault spec (after any sweep-point override), the five
// prune knobs (α/ε in hexfloat so the key survives formatting
// round-trips; the cut finder runs its defaults, so it has no segment),
// the metric-request set, the scenario seed and repetition — and, for a
// monotone chain cell, the swept param and value list (the chain is one
// job, so the whole chain is one cell).
//
// Keys are human-readable on purpose: the store hashes them for its
// index but writes them in full into every record and verifies equality
// on load, so a 64-bit index collision degrades to a miss, never to a
// wrong result.  A key is an entry prefix (everything up to "|rep=",
// built once per campaign entry) plus the per-cell suffix.  Anything that changes what a cell computes MUST change
// its key — that is enforced socially by routing every input through
// store_key_prefix, and structurally by the schema field, which bumps
// with kStoreSchemaVersion.
#pragma once

#include <string>
#include <string_view>

#include "api/scenario.hpp"

namespace fne {

struct SweepSpec;

/// Everything of a cell key up to and including "|rep=": the part all
/// repetitions of one entry share, so a plan builds it once per entry.
/// `effective_fault` is the job's fault spec (sweep points override one
/// param of the entry's fault).
[[nodiscard]] std::string store_key_prefix(const Scenario& scenario,
                                           const FaultSpec& effective_fault);

/// The canonical key for one campaign cell: `prefix` (store_key_prefix)
/// plus the repetition; `monotone` non-null marks a chain cell and
/// appends the swept values.  Deterministic: same inputs -> same bytes,
/// on any platform.
[[nodiscard]] std::string store_cell_key(std::string_view prefix, int rep,
                                         const SweepSpec* monotone = nullptr);

/// store_cell_key(store_key_prefix(scenario, effective_fault), rep, monotone).
[[nodiscard]] std::string store_cell_key(const Scenario& scenario,
                                         const FaultSpec& effective_fault, int rep,
                                         const SweepSpec* monotone = nullptr);

}  // namespace fne
