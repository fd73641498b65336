// Deployment-configuration validation.
//
// Misconfigured commit offsets are the one thing that can silently break
// Helios's safety (Rule 1 is the correctness condition), so a production
// deployment should validate its HeliosConfig before starting nodes.
// HeliosCluster construction checks the basics; this function returns
// descriptive errors for operator-facing tooling.

#ifndef HELIOS_CORE_CONFIG_VALIDATION_H_
#define HELIOS_CORE_CONFIG_VALIDATION_H_

#include "common/status.h"
#include "core/helios_config.h"

namespace helios::core {

/// Validates `config` for an n-datacenter deployment:
///  - num_datacenters >= 2;
///  - the commit-offset matrix, if present, is n x n with a zero diagonal
///    and satisfies Rule 1 (co[a][b] + co[b][a] >= 0 for every pair);
///  - fault_tolerance is in [0, n-1] and, with f > 0, grace_time > 0;
///  - log_interval > 0, gc_interval != 0 is not required (<= 0 disables);
///  - clock_offsets, if present, has one entry per datacenter.
/// Returns OK or a kInvalidArgument / kFailedPrecondition describing the
/// first problem found.
Status ValidateHeliosConfig(const HeliosConfig& config);

}  // namespace helios::core

#endif  // HELIOS_CORE_CONFIG_VALIDATION_H_
