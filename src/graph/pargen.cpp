#include "graph/pargen.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "graph/algorithms.hpp"
#include "util/parallel.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace radiocast::graph::pargen {

namespace {

// Chunk granularity: small enough that mid-size instances still split
// across workers, large enough that per-chunk RNG setup is noise. The
// chunk count is a pure function of the domain size — NEVER of the thread
// count — which is what makes output thread-count independent.
constexpr std::uint64_t kChunkGrain = 4096;
constexpr int kMaxChunks = 256;

// Family tags folded into the seed so two families never share streams.
constexpr std::uint64_t kTagGnp = 0x706E67u;   // "gnp"
constexpr std::uint64_t kTagRgg = 0x676772u;   // "rgg"
constexpr std::uint64_t kTagBa = 0x6162u;      // "ba"
constexpr std::uint64_t kTagCl = 0x6C63u;      // "cl"

int chunk_count_for(std::uint64_t domain) {
  const std::uint64_t chunks = (domain + kChunkGrain - 1) / kChunkGrain;
  return static_cast<int>(
      std::clamp<std::uint64_t>(chunks, 1, static_cast<std::uint64_t>(kMaxChunks)));
}

/// [lo, hi) slice of [0, domain) for chunk c of `chunks` (balanced split).
void chunk_range(std::uint64_t domain, int chunks, int c, std::uint64_t& lo,
                 std::uint64_t& hi) {
  const auto uc = static_cast<std::uint64_t>(chunks);
  const auto ui = static_cast<std::uint64_t>(c);
  lo = domain * ui / uc;
  hi = domain * (ui + 1) / uc;
}

/// Runs fn(c) for every chunk over up to `threads` workers (chunks are
/// independent, so schedule order is free).
void run_chunks(int chunks, int threads, const std::function<void(int)>& fn) {
  util::parallel_for(chunks, threads, "pargen.chunk", "pargen-worker", fn);
}

// ------------------------------------------------------------- CSR assembly

/// Two-pass chunked CSR assembly. `emit_chunk(c, emit)` must emit the SAME
/// edge sequence every time it is called for a given c (re-seed any RNG
/// inside); it runs once to count and once to fill. Self-loops are dropped
/// centrally; duplicate edges are compacted after the per-row sort.
template <typename EmitChunk>
Graph assemble_csr(NodeId n, int chunks, int threads,
                   const EmitChunk& emit_chunk) {
  // Pass 1: count degrees. Atomic increments commute, so the totals are
  // independent of chunk scheduling.
  std::unique_ptr<std::atomic<std::uint32_t>[]> degree(
      new std::atomic<std::uint32_t>[n]);
  for (NodeId v = 0; v < n; ++v) {
    degree[v].store(0, std::memory_order_relaxed);
  }
  run_chunks(chunks, threads, [&](int c) {
    emit_chunk(c, [&](NodeId u, NodeId v) {
      if (u == v) return;
      degree[u].fetch_add(1, std::memory_order_relaxed);
      degree[v].fetch_add(1, std::memory_order_relaxed);
    });
  });

  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + degree[v].load(std::memory_order_relaxed);
  }

  // Pass 2: re-run the identical sampler streams and scatter through
  // per-node cursors. Row CONTENT order depends on scheduling; the sort
  // below normalises it, so the final bytes do not.
  std::vector<NodeId> adjacency(offsets[n]);
  std::unique_ptr<std::atomic<std::uint64_t>[]> cursor(
      new std::atomic<std::uint64_t>[n]);
  for (NodeId v = 0; v < n; ++v) {
    cursor[v].store(offsets[v], std::memory_order_relaxed);
  }
  run_chunks(chunks, threads, [&](int c) {
    emit_chunk(c, [&](NodeId u, NodeId v) {
      if (u == v) return;
      adjacency[cursor[u].fetch_add(1, std::memory_order_relaxed)] = v;
      adjacency[cursor[v].fetch_add(1, std::memory_order_relaxed)] = u;
    });
  });

  // Pass 3: per-row sort + duplicate detection, chunked over nodes.
  std::vector<std::uint32_t> unique_degree(n);
  const int sort_chunks = chunk_count_for(n);
  run_chunks(sort_chunks, threads, [&](int c) {
    std::uint64_t lo = 0, hi = 0;
    chunk_range(n, sort_chunks, c, lo, hi);
    for (std::uint64_t v = lo; v < hi; ++v) {
      const auto begin =
          adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
      const auto end =
          adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
      std::sort(begin, end);
      unique_degree[v] = static_cast<std::uint32_t>(
          std::distance(begin, std::unique(begin, end)));
    }
  });

  std::vector<std::uint64_t> final_offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    final_offsets[v + 1] = final_offsets[v] + unique_degree[v];
  }
  if (final_offsets[n] == offsets[n]) {
    return Graph::from_csr(std::move(offsets), std::move(adjacency));
  }
  // Duplicates found: compact the unique prefix of each row.
  std::vector<NodeId> compacted(final_offsets[n]);
  run_chunks(sort_chunks, threads, [&](int c) {
    std::uint64_t lo = 0, hi = 0;
    chunk_range(n, sort_chunks, c, lo, hi);
    for (std::uint64_t v = lo; v < hi; ++v) {
      std::copy_n(adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                  unique_degree[v],
                  compacted.begin() +
                      static_cast<std::ptrdiff_t>(final_offsets[v]));
    }
  });
  return Graph::from_csr(std::move(final_offsets), std::move(compacted));
}

// ------------------------------------------------------ connectivity repair

/// Same repair policy as graph::generators' build_connected: one edge
/// between the first-discovered representatives of consecutive components.
/// Rebuilds the CSR with the extra edges merged in (O(n + m) copy; the
/// repair set is tiny, so affected rows are re-sorted individually).
Graph repair_connected(Graph g) {
  const std::vector<NodeId> comp = connected_components(g);
  NodeId comp_count = 0;
  for (const NodeId c : comp) {
    comp_count = std::max(comp_count, static_cast<NodeId>(c + 1));
  }
  if (comp_count <= 1) return g;
  const NodeId n = g.node_count();
  std::vector<NodeId> representative(comp_count, kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    if (representative[comp[v]] == kInvalidNode) representative[comp[v]] = v;
  }
  std::vector<std::uint32_t> extra(n, 0);
  for (NodeId c = 1; c < comp_count; ++c) {
    ++extra[representative[c - 1]];
    ++extra[representative[c]];
  }
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + g.degree(v) + extra[v];
  }
  std::vector<NodeId> adjacency(offsets[n]);
  std::vector<std::uint64_t> fill(offsets.begin(), offsets.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    const auto row = g.neighbors(v);
    std::copy(row.begin(), row.end(),
              adjacency.begin() + static_cast<std::ptrdiff_t>(fill[v]));
    fill[v] += row.size();
  }
  for (NodeId c = 1; c < comp_count; ++c) {
    const NodeId a = representative[c - 1], b = representative[c];
    adjacency[fill[a]++] = b;
    adjacency[fill[b]++] = a;
  }
  for (NodeId c = 0; c < comp_count; ++c) {
    const NodeId v = representative[c];
    std::sort(adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
              adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
  }
  return Graph::from_csr(std::move(offsets), std::move(adjacency));
}

/// Hash-derived uniform draw in [0, bound): multiply-shift on a splitmix
/// of (seed, stream) — stateless, so any chunk can re-derive any draw.
std::uint64_t hash_uniform(std::uint64_t seed, std::uint64_t stream,
                           std::uint64_t bound) {
  const std::uint64_t h = util::mix_seed(seed, stream);
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(h) * bound) >> 64);
}

}  // namespace

int resolve_threads(int threads) {
  if (threads > 0) return std::min(threads, 64);
  if (const char* env = std::getenv("RADIOCAST_GEN_THREADS")) {
    return std::min(util::parse_positive_int(env, "RADIOCAST_GEN_THREADS"),
                    64);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 8u));
}

// -------------------------------------------------------------------- gnp

namespace {

/// Linear index of the first upper-triangle slot of row r (n columns).
std::uint64_t tri_start(std::uint64_t r, std::uint64_t n) {
  return r * n - r * (r + 1) / 2;
}

/// Decodes a linear upper-triangle index into (row, col), row < col. The
/// binary search is seeded with [row_lo, n-1] so chunked decodes stay
/// O(log chunk) instead of O(log n).
void tri_decode(std::uint64_t idx, std::uint64_t n, NodeId row_lo, NodeId& r,
                NodeId& c) {
  NodeId lo = row_lo, hi = static_cast<NodeId>(n - 1);
  while (lo < hi) {
    const NodeId mid = lo + (hi - lo) / 2;
    if (tri_start(mid, n) <= idx) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  r = lo - 1;
  c = static_cast<NodeId>(r + 1 + (idx - tri_start(r, n)));
}

Graph gnp_compat(NodeId n, double p, std::uint64_t seed) {
  // The textbook Bernoulli loop, byte-for-byte the reference the tests
  // compare against: one uniform_real per pair, lexicographic order.
  util::Rng rng(seed);
  std::vector<std::uint32_t> degree(n, 0);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.uniform_real() < p) {
        edges.emplace_back(u, v);
        ++degree[u];
        ++degree[v];
      }
    }
  }
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + degree[v];
  std::vector<NodeId> adjacency(offsets[n]);
  std::vector<std::uint64_t> fill(offsets.begin(), offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    adjacency[fill[u]++] = v;
    adjacency[fill[v]++] = u;
  }
  // Lexicographic emission leaves every row sorted already.
  return repair_connected(
      Graph::from_csr(std::move(offsets), std::move(adjacency)));
}

}  // namespace

Graph gnp(NodeId n, double p, std::uint64_t seed, const GenOptions& opts) {
  if (n == 0) throw std::invalid_argument("pargen::gnp: n must be >= 1");
  if (opts.gnp_compat) return gnp_compat(n, std::min(p, 1.0), seed);
  const int threads = resolve_threads(opts.threads);
  const int chunks = chunk_count_for(n);
  const std::uint64_t base = util::mix_seed(seed, kTagGnp);
  const double pc = std::clamp(p, 0.0, 1.0);

  const auto emit_chunk = [&](int c, const auto& emit) {
    std::uint64_t row_lo = 0, row_hi = 0;
    chunk_range(n, chunks, c, row_lo, row_hi);
    if (row_lo >= row_hi) return;
    if (pc >= 1.0) {
      for (std::uint64_t u = row_lo; u < row_hi; ++u) {
        for (NodeId v = static_cast<NodeId>(u) + 1; v < n; ++v) {
          emit(static_cast<NodeId>(u), v);
        }
      }
      return;
    }
    if (pc <= 0.0) return;
    // Geometric skipping over this chunk's slice of the upper-triangle
    // index space; the chunk's stream is independent of every other
    // chunk's, so nothing downstream depends on who ran first.
    util::Rng rng(util::mix_seed(base, static_cast<std::uint64_t>(c)));
    const double log1mp = std::log1p(-pc);
    std::uint64_t idx = tri_start(row_lo, n);
    const std::uint64_t end = tri_start(row_hi, n);
    while (idx < end) {
      const double u01 = rng.uniform_real();
      const double skip_f = std::floor(std::log1p(-u01) / log1mp);
      if (!(skip_f < static_cast<double>(end - idx))) break;
      idx += static_cast<std::uint64_t>(skip_f);
      NodeId r = 0, col = 0;
      tri_decode(idx, n, static_cast<NodeId>(row_lo), r, col);
      emit(r, col);
      ++idx;
    }
  };
  return repair_connected(assemble_csr(n, chunks, threads, emit_chunk));
}

// ------------------------------------------------------- random geometric

Graph random_geometric(NodeId n, double radius, std::uint64_t seed,
                       const GenOptions& opts) {
  if (n == 0) throw std::invalid_argument("pargen::rgg: n must be >= 1");
  if (radius <= 0.0) {
    throw std::invalid_argument("pargen::rgg: radius must be > 0");
  }
  const int threads = resolve_threads(opts.threads);
  const std::uint64_t base = util::mix_seed(seed, kTagRgg);

  // Positions: chunked over node ranges, two uniform draws per node in
  // node order within the chunk — deterministic for any thread count.
  std::vector<double> xs(n), ys(n);
  const int pos_chunks = chunk_count_for(n);
  run_chunks(pos_chunks, threads, [&](int c) {
    std::uint64_t lo = 0, hi = 0;
    chunk_range(n, pos_chunks, c, lo, hi);
    util::Rng rng(util::mix_seed(base, static_cast<std::uint64_t>(c)));
    for (std::uint64_t v = lo; v < hi; ++v) {
      xs[v] = rng.uniform_real();
      ys[v] = rng.uniform_real();
    }
  });

  // Cell grid with cell size = radius; buckets filled sequentially in node
  // order (O(n), deterministic), then chunks own bands of cell rows and
  // scan the same (here, there) cell pairs the sequential generator does.
  const auto cells = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(1.0 / radius));
  std::vector<std::vector<NodeId>> buckets(static_cast<std::size_t>(cells) *
                                           cells);
  const auto bucket_of = [&](double x, double y) {
    const auto cx = std::min<std::uint32_t>(
        cells - 1, static_cast<std::uint32_t>(x * cells));
    const auto cy = std::min<std::uint32_t>(
        cells - 1, static_cast<std::uint32_t>(y * cells));
    return static_cast<std::size_t>(cy) * cells + cx;
  };
  for (NodeId v = 0; v < n; ++v) buckets[bucket_of(xs[v], ys[v])].push_back(v);

  const double r2 = radius * radius;
  const int chunks = std::min<int>(kMaxChunks, static_cast<int>(cells));
  const auto emit_chunk = [&](int c, const auto& emit) {
    std::uint64_t cy_lo = 0, cy_hi = 0;
    chunk_range(cells, chunks, c, cy_lo, cy_hi);
    for (std::uint64_t cy = cy_lo; cy < cy_hi; ++cy) {
      for (std::uint32_t cx = 0; cx < cells; ++cx) {
        const auto& here = buckets[static_cast<std::size_t>(cy) * cells + cx];
        if (here.empty()) continue;
        for (std::int32_t dy = 0; dy <= 1; ++dy) {
          for (std::int32_t dx = (dy == 0 ? 0 : -1); dx <= 1; ++dx) {
            const std::int64_t ny = static_cast<std::int64_t>(cy) + dy;
            const std::int64_t nx = static_cast<std::int64_t>(cx) + dx;
            if (ny < 0 || nx < 0 || ny >= static_cast<std::int64_t>(cells) ||
                nx >= static_cast<std::int64_t>(cells)) {
              continue;
            }
            const auto& there =
                buckets[static_cast<std::size_t>(ny) * cells + nx];
            const bool same = (dy == 0 && dx == 0);
            for (std::size_t a = 0; a < here.size(); ++a) {
              for (std::size_t b = same ? a + 1 : 0; b < there.size(); ++b) {
                const NodeId u = here[a], v = there[b];
                const double ddx = xs[u] - xs[v], ddy = ys[u] - ys[v];
                if (ddx * ddx + ddy * ddy <= r2) emit(u, v);
              }
            }
          }
        }
      }
    }
  };
  return repair_connected(assemble_csr(n, chunks, threads, emit_chunk));
}

// --------------------------------------------------------- Barabasi-Albert

namespace {

/// Batagelj-Brandes target of global edge j (source j / attach), resolved
/// by retracing hash draws: the virtual edge array M has M[2j] = source(j)
/// and M[2j+1] = M[r_j] with r_j uniform in [0, 2j]; even positions are
/// sources (known analytically), odd positions recurse to an earlier
/// edge's target. j strictly decreases, expected depth O(1).
NodeId ba_target(std::uint64_t seed, std::uint64_t j, std::uint32_t attach) {
  while (true) {
    const std::uint64_t r = hash_uniform(seed, j, 2 * j + 1);
    if ((r & 1) == 0) {
      return static_cast<NodeId>((r >> 1) / attach);
    }
    j = r >> 1;  // (r - 1) / 2 for odd r
  }
}

}  // namespace

Graph barabasi_albert(NodeId n, std::uint32_t attach, std::uint64_t seed,
                      const GenOptions& opts) {
  if (n < 2) throw std::invalid_argument("pargen::ba: n must be >= 2");
  if (attach == 0) {
    throw std::invalid_argument("pargen::ba: attach must be >= 1");
  }
  const int threads = resolve_threads(opts.threads);
  const int chunks = chunk_count_for(n);
  const std::uint64_t base = util::mix_seed(seed, kTagBa);
  const auto emit_chunk = [&](int c, const auto& emit) {
    std::uint64_t lo = 0, hi = 0;
    chunk_range(n, chunks, c, lo, hi);
    for (std::uint64_t v = lo; v < hi; ++v) {
      for (std::uint32_t i = 0; i < attach; ++i) {
        const std::uint64_t j = v * attach + i;
        // Self-loops (mostly node 0's bootstrap edges) are dropped by the
        // assembler; duplicates are compacted after the row sort.
        emit(static_cast<NodeId>(v), ba_target(base, j, attach));
      }
    }
  };
  return repair_connected(assemble_csr(n, chunks, threads, emit_chunk));
}

// ---------------------------------------------------------------- Chung-Lu

Graph chung_lu(NodeId n, double exponent, double avg_deg, std::uint64_t seed,
               const GenOptions& opts) {
  if (n < 2) throw std::invalid_argument("pargen::chung_lu: n must be >= 2");
  if (exponent <= 2.0) {
    throw std::invalid_argument(
        "pargen::chung_lu: exponent must be > 2 (finite mean degree)");
  }
  if (avg_deg <= 0.0) {
    throw std::invalid_argument("pargen::chung_lu: avg_deg must be > 0");
  }
  const int threads = resolve_threads(opts.threads);
  const int chunks = chunk_count_for(n);
  const std::uint64_t base = util::mix_seed(seed, kTagCl);

  // Power-law weights, descending in i; chunked pow evaluation with the
  // partial sums combined in fixed chunk order (float addition order is
  // part of the determinism contract).
  std::vector<double> w(n);
  std::vector<double> partial(static_cast<std::size_t>(chunks), 0.0);
  const double inv = 1.0 / (exponent - 1.0);
  run_chunks(chunks, threads, [&](int c) {
    std::uint64_t lo = 0, hi = 0;
    chunk_range(n, chunks, c, lo, hi);
    double sum = 0.0;
    for (std::uint64_t i = lo; i < hi; ++i) {
      w[i] = std::pow(static_cast<double>(n) / static_cast<double>(i + 1),
                      inv);
      sum += w[i];
    }
    partial[static_cast<std::size_t>(c)] = sum;
  });
  double raw_sum = 0.0;
  for (const double s : partial) raw_sum += s;
  const double scale = avg_deg * static_cast<double>(n) / raw_sum;
  run_chunks(chunks, threads, [&](int c) {
    std::uint64_t lo = 0, hi = 0;
    chunk_range(n, chunks, c, lo, hi);
    for (std::uint64_t i = lo; i < hi; ++i) w[i] *= scale;
  });
  const double big_s = avg_deg * static_cast<double>(n);  // = sum of w

  // Miller-Hagberg: for each source u the probabilities min(1, w_u w_v / S)
  // are non-increasing in v, so a geometric skip under the CURRENT bound p
  // plus an accept with q/p thins exactly to the target distribution.
  const auto emit_chunk = [&](int c, const auto& emit) {
    std::uint64_t lo = 0, hi = 0;
    chunk_range(n, chunks, c, lo, hi);
    util::Rng rng(util::mix_seed(base, static_cast<std::uint64_t>(c)));
    for (std::uint64_t u = lo; u < hi; ++u) {
      std::uint64_t v = u + 1;
      if (v >= n) continue;
      double p = std::min(1.0, w[u] * w[v] / big_s);
      while (v < n && p > 0.0) {
        if (p < 1.0) {
          const double r = rng.uniform_real();
          const double skip_f = std::floor(std::log1p(-r) / std::log1p(-p));
          if (!(skip_f < static_cast<double>(n - v))) break;
          v += static_cast<std::uint64_t>(skip_f);
        }
        const double q = std::min(1.0, w[u] * w[v] / big_s);
        if (rng.uniform_real() * p < q) {
          emit(static_cast<NodeId>(u), static_cast<NodeId>(v));
        }
        p = q;
        ++v;
      }
    }
  };
  return repair_connected(assemble_csr(n, chunks, threads, emit_chunk));
}

}  // namespace radiocast::graph::pargen
