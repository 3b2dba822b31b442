// JSON emitter for compiled programs, in the spirit of p4c's bmv2 JSON
// artifact: a machine-readable description of the transformed data plane
// (header types, instances, actions, tables, registers, control flow) that
// external tooling — visualizers, rule checkers, other simulators — can
// consume without linking this library. Renders through util/json's
// JsonWriter.
#pragma once

#include <string>

#include "p4/ir.hpp"

namespace mantis::p4 {

/// Serializes the program. Deterministic output (declaration order), 2-space
/// indentation, UTF-8; numbers are decimal. Arrays keep their first element
/// on the bracket's line (JsonWriter::Layout::kHanging), and the document
/// opens with a blank line.
std::string emit_json(const Program& prog);

}  // namespace mantis::p4
