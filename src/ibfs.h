#ifndef IBFS_IBFS_H_
#define IBFS_IBFS_H_

/// Umbrella header: the iBFS public API in one include.
///
///   #include "ibfs.h"
///
///   auto graph   = ibfs::gen::GenerateRmat({.scale = 12});
///   auto sources = ibfs::graph::SampleConnectedSources(graph.value(), 128, 1);
///   ibfs::Engine engine(&graph.value(), {});
///   auto result  = engine.Run(sources);
///
/// Sub-headers remain individually includable; this file only aggregates.

#include "core/cluster_engine.h"
#include "core/engine.h"
#include "core/options.h"
#include "core/trace_io.h"
#include "core/validate.h"
#include "gen/benchmarks.h"
#include "gen/rmat.h"
#include "gen/uniform.h"
#include "gpusim/cluster.h"
#include "gpusim/device.h"
#include "gpusim/device_spec.h"
#include "gpusim/report.h"
#include "graph/builder.h"
#include "graph/components.h"
#include "graph/csr.h"
#include "graph/degree_stats.h"
#include "graph/io.h"
#include "graph/relabel.h"
#include "ibfs/groupby.h"
#include "ibfs/runner.h"
#include "ibfs/trace.h"
#include "util/status.h"

#endif  // IBFS_IBFS_H_
