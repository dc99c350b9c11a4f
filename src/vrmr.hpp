#pragma once

// Umbrella header for the vrmr public API.
//
// Typical embedding (see examples/quickstart.cpp):
//
//   #include "vrmr.hpp"
//
//   vrmr::sim::Engine engine;
//   vrmr::cluster::Cluster cluster(
//       engine, vrmr::cluster::ClusterConfig::with_total_gpus(8));
//   auto volume = vrmr::volren::datasets::skull({256, 256, 256});
//   vrmr::volren::RenderOptions options;
//   auto result = vrmr::volren::render_mapreduce(cluster, volume, options);
//   result.image.write_ppm("frame.ppm");
//
// Layering (each header is also individually includable):
//   sim      — discrete-event engine and resources (the simulated clock)
//   gpusim   — functional GPU devices, kernel launches, textures
//   net/io   — interconnect fabric, virtual disks, VRBF brick files
//   cluster  — node topology + calibrated hardware model
//   mr       — the MapReduce library (FramePlan, Mapper, Reducer, Combiner)
//   volren   — the volume renderer built on mr
//   service  — session handles, frame scheduler, per-GPU brick cache,
//              sharded multi-cluster frontend
//   obs      — flight recorder (Chrome trace-event export), metrics
//              registry, per-frame critical-path attribution

// Substrates.
#include "cluster/cluster.hpp"
#include "cluster/hardware_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/texture.hpp"
#include "io/brick_file.hpp"
#include "io/brick_streamer.hpp"
#include "io/disk.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

// MapReduce library.
#include "mr/analysis.hpp"
#include "mr/combiner.hpp"
#include "mr/frame_plan.hpp"
#include "mr/job.hpp"

// Volume renderer.
#include "volren/binary_swap.hpp"
#include "volren/datasets.hpp"
#include "volren/reference.hpp"
#include "volren/renderer.hpp"

// Render service (session handles served on one cluster or sharded
// across several by the frontend).
#include "service/brick_cache.hpp"
#include "service/frontend.hpp"
#include "service/render_service.hpp"
#include "service/session.hpp"

// Observability (attach with RenderService::set_trace /
// ServiceFrontend::set_trace; zero-cost when detached).
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
