// geofm — umbrella header for the public API.
//
// A C++ reproduction of "Pretraining Billion-scale Geospatial Foundational
// Models on Frontier" (Tsaris et al.): ViT/MAE models with hand-written
// backward passes, working DDP/FSDP over an in-process collective
// substrate, procedural geospatial datasets, training loops for MAE
// pretraining and linear probing, and a discrete-event performance
// simulator of the Frontier supercomputer.
//
// Layer map (include individually for faster builds):
//   util/      logging, RNG, thread pool, tables
//   tensor/    fp32 tensors + kernels
//   nn/        layers with forward/backward
//   models/    ViT encoder, MAE, Table I configs
//   optim/     SGD / AdamW / LARS, cosine-warmup schedule
//   comm/      thread-rank collectives (nonblocking engine + split)
//   parallel/  DDP and FSDP (all sharding strategies, prefetch modes)
//   data/      procedural scene datasets (Table II), DataLoader
//   train/     pretraining, linear probing, distributed + elastic drivers
//   ckpt/      checkpoints: sharded save/restart (async snapshots,
//              resharding) and single-file module checkpoints
//   serve/     frozen-encoder embedding service (hot-reload, batching,
//              embedding cache, per-tenant linear-probe heads)
//   sim/       Frontier machine model + training-step simulator
//   obs/       per-rank tracing (Chrome-trace export) + metrics registry,
//              flight recorder (postmortem bundles), telemetry sampler,
//              run-health report + Prometheus exposition
#pragma once

#include "ckpt/checkpoint.hpp"
#include "ckpt/io_fault.hpp"
#include "ckpt/reshard.hpp"
#include "ckpt/state.hpp"
#include "ckpt/uploader.hpp"
#include "comm/communicator.hpp"
#include "comm/fault.hpp"
#include "comm/watchdog.hpp"
#include "data/dataloader.hpp"
#include "data/datasets.hpp"
#include "models/config.hpp"
#include "models/mae.hpp"
#include "models/vit.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "optim/optimizer.hpp"
#include "parallel/fsdp.hpp"
#include "serve/batcher.hpp"
#include "serve/cache.hpp"
#include "serve/heads.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"
#include "train/distributed.hpp"
#include "train/elastic.hpp"
#include "train/linear_probe.hpp"
#include "train/pretrain.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
