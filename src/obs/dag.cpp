#include "obs/dag.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/json.hpp"
#include "obs/recorder.hpp"

namespace fth::obs::dag {

namespace {

using obs::detail::Rec;
using obs::detail::TraceEvent;

/// Each thread's buffered DAG events, tagged with its trace tid.
using Buffers = std::vector<std::pair<std::uint32_t, std::vector<TraceEvent>>>;

/// Copy (tail_json) or move out and disarm (stop) every thread's events.
Buffers collect(bool drain) {
  if (drain) obs::detail::set_sink(obs::detail::kDag, false);
  Buffers out;
  obs::detail::for_each_buffer([&](obs::detail::ThreadBuffer& b) {
    if (b.dag.empty()) return;
    if (drain) out.emplace_back(b.tid, std::exchange(b.dag, {}));
    else out.emplace_back(b.tid, b.dag);
  });
  return out;
}

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

/// Device compute (as opposed to transfers / FT bookkeeping / the
/// cross-stream wait task): the tasks the roofline scenario scales and the
/// lookahead scenarios may leave in flight.
[[nodiscard]] bool is_dev_compute(std::string_view label) {
  return starts_with(label, "dev.") && label != "dev.wait_event";
}

// ---------------------------------------------------------------------------
// Assembly: turn the drained per-thread event streams into a Graph.

using TaskKey = std::pair<std::uint64_t, std::uint64_t>;  // (stream, ticket)

struct Assembler {
  Graph g;
  std::map<TaskKey, std::int64_t> task_of;

  [[nodiscard]] std::int64_t lookup(std::uint64_t stream, std::uint64_t ticket) const {
    const auto it = task_of.find({stream, ticket});
    return it == task_of.end() ? -1 : it->second;
  }

  void run(const Buffers& bufs) {
    if (bufs.empty()) return;

    bool any_ts = false;
    for (const auto& [tid, evs] : bufs) {
      for (const TraceEvent& ev : evs) {
        if (!any_ts) {
          g.t0_us = g.t1_us = ev.ts_us;
          any_ts = true;
        } else {
          g.t0_us = std::min(g.t0_us, ev.ts_us);
          g.t1_us = std::max(g.t1_us, ev.ts_us);
        }
      }
    }

    // 1. Task nodes, created in (stream, ticket) order so node indices do
    //    not depend on which thread registered its buffer first.
    std::vector<const TraceEvent*> enqs;
    for (const auto& [tid, evs] : bufs)
      for (const TraceEvent& ev : evs)
        if (ev.kind == Rec::Enqueue) enqs.push_back(&ev);
    std::sort(enqs.begin(), enqs.end(), [](const TraceEvent* a, const TraceEvent* b) {
      return std::tie(a->stream, a->ticket) < std::tie(b->stream, b->ticket);
    });
    for (const TraceEvent* e : enqs) {
      Node nd;
      nd.kind = NodeKind::Task;
      nd.label = e->arg_key;
      nd.stream = e->stream;
      nd.ticket = e->ticket;
      nd.enq_us = e->ts_us;
      nd.t0_us = nd.t1_us = e->ts_us;  // refined by the task's begin/end below
      task_of.emplace(TaskKey{e->stream, e->ticket}, static_cast<std::int64_t>(g.nodes.size()));
      g.nodes.push_back(std::move(nd));
    }

    // 2. Worker threads (those that ran a task): task execution intervals,
    //    transfer payloads (the "bytes" argument of the transfer span inside
    //    the task), and cross-stream waits inside dev.wait_event tasks —
    //    a wait is in-task iff a task is open on its thread's span stack.
    std::vector<bool> worker(bufs.size(), false);
    for (std::size_t t = 0; t < bufs.size(); ++t) {
      const auto& [tid, evs] = bufs[t];
      std::vector<Rec> open;
      std::int64_t cur = -1, cause = -1;
      for (const TraceEvent& ev : evs) {
        if (ev.ph == 'B') {
          open.push_back(ev.kind);
          if (ev.kind == Rec::Task) {
            worker[t] = true;
            cur = lookup(ev.stream, ev.ticket);
            if (cur >= 0) {
              g.nodes[cur].t0_us = ev.ts_us;
              g.nodes[cur].tid = tid;
            }
          } else if (cur >= 0 && ev.kind == Rec::Wait) {
            cause = ev.ticket > 0 ? lookup(ev.stream, ev.ticket) : -1;
          } else if (cur >= 0 && std::strcmp(ev.arg_key, "bytes") == 0) {
            g.nodes[cur].bytes += ev.value;
          }
        } else if (ev.ph == 'E' && !open.empty()) {
          const Rec closed = open.back();
          open.pop_back();
          if (closed == Rec::Task) {
            if (cur >= 0) g.nodes[cur].t1_us = ev.ts_us;
            cur = -1;
          } else if (closed == Rec::Wait && cur >= 0 && cause >= 0) {
            g.edges.push_back(Edge{cause, cur, EdgeKind::Cause});
            cause = -1;
          }
        }
      }
    }
    for (Node& nd : g.nodes)
      if (nd.kind == NodeKind::Task && nd.t1_us < nd.t0_us) nd.t1_us = g.t1_us;

    // 3. Host threads: span nodes, the Work/Wait/Mark chain, task tags and
    //    Enq/Cause edges. A thread is "host" iff it never began a task.
    struct HostRef {
      std::uint32_t tid;
      const std::vector<TraceEvent>* evs;
      std::size_t enq_count;
      double first_ts;
    };
    std::vector<HostRef> hosts;
    for (std::size_t t = 0; t < bufs.size(); ++t) {
      const auto& [tid, evs] = bufs[t];
      std::size_t boundary = 0, enq_count = 0;
      for (const TraceEvent& ev : evs) {
        if (ev.kind == Rec::Enqueue) ++enq_count;
        if (ev.kind == Rec::Enqueue || ev.kind == Rec::Mark || ev.ph == 'B') ++boundary;
      }
      if (!worker[t] && boundary > 0)
        hosts.push_back(HostRef{tid, &evs, enq_count, evs.front().ts_us});
    }
    std::sort(hosts.begin(), hosts.end(), [](const HostRef& a, const HostRef& b) {
      return std::tie(b.enq_count, a.first_ts, a.tid) < std::tie(a.enq_count, b.first_ts, b.tid);
    });

    for (std::size_t h = 0; h < hosts.size(); ++h)
      build_host_chain(hosts[h].tid, *hosts[h].evs, /*primary=*/h == 0);

    // 4. Fifo edges: ticket order within each stream. Task nodes were
    //    created sorted by (stream, ticket), so neighbours suffice.
    for (std::size_t i = 1; i < g.nodes.size(); ++i) {
      if (g.nodes[i].kind != NodeKind::Task) break;  // tasks are a prefix
      if (g.nodes[i].stream == g.nodes[i - 1].stream)
        g.edges.push_back(
            Edge{static_cast<std::int64_t>(i - 1), static_cast<std::int64_t>(i), EdgeKind::Fifo});
    }
  }

 private:
  void build_host_chain(std::uint32_t tid, const std::vector<TraceEvent>& evs, bool primary) {
    bool has_chain = false;
    for (const TraceEvent& ev : evs)
      if (ev.kind == Rec::Enqueue || ev.kind == Rec::Mark || (ev.ph == 'B' && ev.kind == Rec::Wait))
        has_chain = true;

    std::int64_t prev = -1;
    double seg_start = evs.front().ts_us;
    std::int32_t iter = -1;
    std::int8_t phase = 0;
    // Open spans and waits, innermost last: a span's node index, or -1 and
    // the begin event for a wait.
    std::vector<std::pair<std::int64_t, const TraceEvent*>> open;

    const auto add_chain = [&](Node&& nd) -> std::int64_t {
      nd.tid = tid;
      nd.iter = iter;
      nd.phase = phase;
      const auto idx = static_cast<std::int64_t>(g.nodes.size());
      g.nodes.push_back(std::move(nd));
      if (prev >= 0) g.edges.push_back(Edge{prev, idx, EdgeKind::Seq});
      prev = idx;
      if (primary) g.host_order.push_back(idx);
      return idx;
    };
    const auto close_work = [&](double ts) -> std::int64_t {
      Node nd;
      nd.kind = NodeKind::Work;
      nd.label = "host";
      nd.t0_us = seg_start;
      nd.t1_us = std::max(seg_start, ts);
      seg_start = ts;
      return add_chain(std::move(nd));
    };

    for (const TraceEvent& ev : evs) {
      if (ev.kind == Rec::Enqueue) {
        const std::int64_t work = close_work(ev.ts_us);
        const std::int64_t task = lookup(ev.stream, ev.ticket);
        if (task >= 0) {
          g.nodes[task].iter = iter;
          g.nodes[task].phase = phase;
          g.nodes[task].enq_after = work;
          g.edges.push_back(Edge{work, task, EdgeKind::Enq});
        }
      } else if (ev.kind == Rec::Mark) {
        close_work(ev.ts_us);
        Node nd;
        nd.kind = NodeKind::Mark;
        nd.label = ev.name;
        nd.t0_us = nd.t1_us = ev.ts_us;
        add_chain(std::move(nd));
      } else if (ev.ph == 'B' && ev.kind == Rec::Wait) {
        close_work(ev.ts_us);
        open.emplace_back(-1, &ev);
      } else if (ev.ph == 'B') {
        Node nd;
        nd.kind = NodeKind::Span;
        nd.label = std::string(ev.cat) + "/" + ev.name;
        nd.t0_us = ev.ts_us;
        nd.t1_us = g.t1_us;  // refined when the matching end arrives
        nd.tid = tid;
        if (std::strcmp(ev.cat, "hybrid") == 0) {
          if (std::strcmp(ev.name, "panel") == 0) {
            ++iter;
            phase = 1;
          } else if (std::strcmp(ev.name, "update") == 0) {
            phase = 2;
          }
        }
        nd.iter = iter;
        nd.phase = phase;
        open.emplace_back(static_cast<std::int64_t>(g.nodes.size()), &ev);
        g.nodes.push_back(std::move(nd));
      } else if (ev.ph == 'E' && !open.empty()) {
        const auto [span, begin] = open.back();
        open.pop_back();
        if (span >= 0) {
          Node& nd = g.nodes[span];
          nd.t1_us = ev.ts_us;
          if (nd.label == "hybrid/panel" || nd.label == "hybrid/update") phase = 0;
          continue;
        }
        // A wait: kind "synchronize" / "event_wait" is its site's prefix.
        const std::string_view site(begin->name);
        Node nd;
        nd.kind = NodeKind::Wait;
        nd.label = site.substr(0, site.find('@'));
        nd.site = site.find('@') == std::string_view::npos ? "" : site;
        nd.stream = begin->stream;
        nd.ticket = begin->ticket;
        nd.t0_us = begin->ts_us;
        nd.t1_us = ev.ts_us;
        nd.cause = begin->ticket > 0 ? lookup(begin->stream, begin->ticket) : -1;
        const std::int64_t cause = nd.cause;
        const std::int64_t idx = add_chain(std::move(nd));
        if (cause >= 0) g.edges.push_back(Edge{cause, idx, EdgeKind::Cause});
        seg_start = ev.ts_us;
      }
    }
    // Tail segment: host activity after the last boundary (result checks,
    // report writing) still belongs on the chain.
    if (has_chain) close_work(evs.back().ts_us);
  }
};

/// CPM node duration: Wait nodes are points at t1 (their blocked interval
/// overlaps the cause task — counting it would double-book the path), and
/// Span nodes are context only.
[[nodiscard]] double cpm_dur_us(const Node& nd) {
  if (nd.kind == NodeKind::Wait || nd.kind == NodeKind::Span) return 0.0;
  return nd.dur_us();
}

/// Display label used in path aggregation and blocking tables.
[[nodiscard]] std::string display_label(const Node& nd) {
  switch (nd.kind) {
    case NodeKind::Work: return "host";
    case NodeKind::Wait: return nd.site.empty() ? nd.label : nd.site;
    default: return nd.label;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public recorder surface.

bool enabled() noexcept { return obs::detail::sink_on(obs::detail::kDag); }

void start() {
  obs::detail::for_each_buffer([](obs::detail::ThreadBuffer& b) { b.dag.clear(); });
  obs::detail::set_sink(obs::detail::kDag, true);
}

Graph stop() {
  if (!enabled()) return Graph{};
  Assembler as;
  as.run(collect(/*drain=*/true));
  // Render the cause edges as Perfetto flow arrows when a trace file is
  // being recorded alongside: finished task → the host wait it released.
  if (obs::detail::sink_on(obs::detail::kFile)) {
    double id = 1.0;
    for (const Edge& e : as.g.edges) {
      if (e.kind != EdgeKind::Cause) continue;
      const Node& src = as.g.nodes[e.src];
      const Node& dst = as.g.nodes[e.dst];
      obs::detail::raw_event('s', "dag", "dep", src.t1_us, src.tid, id);
      obs::detail::raw_event('f', "dag", "dep", dst.t1_us, dst.tid, id);
      id += 1.0;
    }
  }
  return as.g;
}

std::string tail_json(std::size_t max_nodes) {
  if (!enabled()) return "[]";
  Assembler as;
  as.run(collect(/*drain=*/false));
  const std::vector<Node>& nodes = as.g.nodes;
  // Newest slice of the timeline: sort node indices by end time, keep the
  // trailing max_nodes, then render them back in chronological order.
  std::vector<std::size_t> idx(nodes.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return nodes[a].t1_us < nodes[b].t1_us;
  });
  if (idx.size() > max_nodes)
    idx.erase(idx.begin(), idx.end() - static_cast<std::ptrdiff_t>(max_nodes));
  static constexpr const char* kKindName[] = {"task", "wait", "work", "span", "mark"};
  std::string out = "[";
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const Node& nd = nodes[idx[i]];
    if (i > 0) out += ',';
    out += "{\"kind\":\"";
    out += kKindName[static_cast<std::size_t>(nd.kind)];
    out += "\",\"label\":\"";
    append_escaped(out, nd.label);
    out += "\",\"iter\":" + std::to_string(nd.iter);
    out += ",\"tid\":" + std::to_string(nd.tid);
    out += ",\"stream\":" + std::to_string(nd.stream);
    out += ",\"t0_us\":";
    append_num(out, nd.t0_us, 17);
    out += ",\"t1_us\":";
    append_num(out, nd.t1_us, 17);
    if (!nd.site.empty()) {
      out += ",\"site\":\"";
      append_escaped(out, nd.site);
      out += "\"";
    }
    out += "}";
  }
  out += "]";
  return out;
}

void mark(const char* label) noexcept {
  if (enabled()) obs::detail::record(TraceEvent{.name = label, .ph = 'i', .kind = Rec::Mark});
}

void init_from_env() {
  static bool armed = false;
  const char* env = std::getenv("FTH_DAG");
  if (armed || env == nullptr || env[0] == '\0' || std::strcmp(env, "0") == 0) return;
  armed = true;
  start();
  static std::string path = std::strcmp(env, "1") == 0
                                ? "fth_dag_" + std::to_string(static_cast<long>(::getpid())) +
                                      ".json"
                                : std::string(env);
  std::atexit([] {
    if (!enabled()) return;
    const Graph g = stop();
    std::ofstream os(path);
    if (os) os << g.to_json() << "\n";
  });
}

// ---------------------------------------------------------------------------
// Graph serialization.

std::size_t Graph::count(NodeKind k) const noexcept {
  std::size_t c = 0;
  for (const Node& nd : nodes)
    if (nd.kind == k) ++c;
  return c;
}

std::size_t Graph::count(EdgeKind k) const noexcept {
  std::size_t c = 0;
  for (const Edge& e : edges)
    if (e.kind == k) ++c;
  return c;
}

std::string Graph::to_json() const {
  std::string out;
  out.reserve(64 + nodes.size() * 96 + edges.size() * 16);
  out += "{\"version\":1,\"t0_us\":";
  append_num(out, t0_us, 17);
  out += ",\"t1_us\":";
  append_num(out, t1_us, 17);
  out += ",\"host_order\":[";
  for (std::size_t i = 0; i < host_order.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(host_order[i]);
  }
  out += "],\"nodes\":[";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& nd = nodes[i];
    if (i > 0) out += ',';
    out += '[';
    out += std::to_string(static_cast<int>(nd.kind));
    out += ',';
    out += std::to_string(static_cast<int>(nd.phase));
    out += ',';
    out += std::to_string(nd.iter);
    out += ',';
    out += std::to_string(nd.tid);
    out += ',';
    out += std::to_string(nd.stream);
    out += ',';
    out += std::to_string(nd.ticket);
    out += ',';
    append_num(out, nd.t0_us, 17);
    out += ',';
    append_num(out, nd.t1_us, 17);
    out += ',';
    append_num(out, nd.enq_us, 17);
    out += ',';
    append_num(out, nd.bytes, 17);
    out += ',';
    out += std::to_string(nd.cause);
    out += ',';
    out += std::to_string(nd.enq_after);
    out += ",\"";
    append_escaped(out, nd.label);
    out += "\",\"";
    append_escaped(out, nd.site);
    out += "\"]";
  }
  out += "],\"edges\":[";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i > 0) out += ',';
    out += '[';
    out += std::to_string(edges[i].src);
    out += ',';
    out += std::to_string(edges[i].dst);
    out += ',';
    out += std::to_string(static_cast<int>(edges[i].kind));
    out += ']';
  }
  out += "]}";
  return out;
}

Graph parse_graph(const json::Value& root) {
  Graph g;
  g.t0_us = root.at("t0_us").as_number();
  g.t1_us = root.at("t1_us").as_number();
  for (const json::Value& v : root.at("host_order").as_array())
    g.host_order.push_back(static_cast<std::int64_t>(v.as_number()));
  for (const json::Value& v : root.at("nodes").as_array()) {
    const json::Array& row = v.as_array();
    if (row.size() != 14) throw json::parse_error("dag: node row must have 14 fields");
    Node nd;
    nd.kind = static_cast<NodeKind>(static_cast<int>(row[0].as_number()));
    nd.phase = static_cast<std::int8_t>(row[1].as_number());
    nd.iter = static_cast<std::int32_t>(row[2].as_number());
    nd.tid = static_cast<std::uint32_t>(row[3].as_number());
    nd.stream = static_cast<std::uint64_t>(row[4].as_number());
    nd.ticket = static_cast<std::uint64_t>(row[5].as_number());
    nd.t0_us = row[6].as_number();
    nd.t1_us = row[7].as_number();
    nd.enq_us = row[8].as_number();
    nd.bytes = row[9].as_number();
    nd.cause = static_cast<std::int64_t>(row[10].as_number());
    nd.enq_after = static_cast<std::int64_t>(row[11].as_number());
    nd.label = row[12].as_string();
    nd.site = row[13].as_string();
    g.nodes.push_back(std::move(nd));
  }
  for (const json::Value& v : root.at("edges").as_array()) {
    const json::Array& row = v.as_array();
    if (row.size() != 3) throw json::parse_error("dag: edge row must have 3 fields");
    Edge e;
    e.src = static_cast<std::int64_t>(row[0].as_number());
    e.dst = static_cast<std::int64_t>(row[1].as_number());
    e.kind = static_cast<EdgeKind>(static_cast<int>(row[2].as_number()));
    if (e.src < 0 || e.dst < 0 || e.src >= static_cast<std::int64_t>(g.nodes.size()) ||
        e.dst >= static_cast<std::int64_t>(g.nodes.size()))
      throw json::parse_error("dag: edge endpoint out of range");
    g.edges.push_back(e);
  }
  return g;
}

// ---------------------------------------------------------------------------
// Analysis: CPM forward/backward passes + cause attribution.

Analysis analyze(const Graph& g) {
  Analysis an;
  an.wall_s = g.wall_s();
  const std::size_t count = g.nodes.size();
  an.slack_s.assign(count, 0.0);
  if (count == 0) return an;

  // Topological order by recorded time: every edge kind satisfies
  // pred.t1 ≤ succ.cpm_start, where a Wait's CPM position is its end.
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  const auto key_ts = [&](std::size_t i) {
    const Node& nd = g.nodes[i];
    return nd.kind == NodeKind::Wait ? nd.t1_us : nd.t0_us;
  };
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ta = key_ts(a), tb = key_ts(b);
    return ta != tb ? ta < tb : a < b;
  });

  std::vector<std::vector<std::pair<std::int64_t, EdgeKind>>> in_edges(count), out_edges(count);
  for (const Edge& e : g.edges) {
    in_edges[static_cast<std::size_t>(e.dst)].emplace_back(e.src, e.kind);
    out_edges[static_cast<std::size_t>(e.src)].emplace_back(e.dst, e.kind);
  }

  const auto forward = [&](bool with_fifo, std::vector<double>& ef,
                           std::vector<std::int64_t>& pred) {
    ef.assign(count, 0.0);
    pred.assign(count, -1);
    for (const std::size_t idx : order) {
      const Node& nd = g.nodes[idx];
      if (nd.kind == NodeKind::Span) continue;
      double base = 0.0;
      std::int64_t best = -1;
      for (const auto& [src, kind] : in_edges[idx]) {
        if (!with_fifo && kind == EdgeKind::Fifo) continue;
        const double f = ef[static_cast<std::size_t>(src)];
        if (f > base) {
          base = f;
          best = src;
        }
      }
      ef[idx] = base + cpm_dur_us(nd);
      pred[idx] = best;
    }
  };

  std::vector<double> ef_full, ef_data;
  std::vector<std::int64_t> pred_full, pred_data;
  forward(/*with_fifo=*/true, ef_full, pred_full);
  forward(/*with_fifo=*/false, ef_data, pred_data);

  std::size_t sink = 0;
  for (std::size_t i = 0; i < count; ++i)
    if (ef_full[i] > ef_full[sink]) sink = i;
  an.critical_path_s = ef_full[sink] / 1e6;
  double makespan_data = 0.0;
  for (std::size_t i = 0; i < count; ++i) makespan_data = std::max(makespan_data, ef_data[i]);
  an.critical_path_data_s = makespan_data / 1e6;

  // Per-node slack on the data-only graph: makespan minus the longest path
  // through the node (backward pass over the reverse time order).
  std::vector<double> bl(count, 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t idx = *it;
    const Node& nd = g.nodes[idx];
    if (nd.kind == NodeKind::Span) continue;
    double tail = 0.0;
    for (const auto& [dst, kind] : out_edges[idx]) {
      if (kind == EdgeKind::Fifo) continue;
      tail = std::max(tail, bl[static_cast<std::size_t>(dst)]);
    }
    bl[idx] = tail + cpm_dur_us(nd);
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (g.nodes[i].kind == NodeKind::Span) continue;
    const double through = ef_data[i] + bl[i] - cpm_dur_us(g.nodes[i]);
    an.slack_s[i] = std::max(0.0, makespan_data - through) / 1e6;
  }

  // Critical-path composition (full graph), aggregated by (kind, label).
  {
    std::map<std::pair<int, std::string>, PathSegment> segs;
    std::int64_t cur = static_cast<std::int64_t>(sink);
    while (cur >= 0) {
      const Node& nd = g.nodes[cur];
      PathSegment& s = segs[{static_cast<int>(nd.kind), display_label(nd)}];
      s.kind = nd.kind;
      s.label = display_label(nd);
      ++s.count;
      s.seconds += cpm_dur_us(nd) / 1e6;
      cur = pred_full[static_cast<std::size_t>(cur)];
    }
    for (auto& [key, seg] : segs) an.path.push_back(std::move(seg));
    std::sort(an.path.begin(), an.path.end(),
              [](const PathSegment& a, const PathSegment& b) { return a.seconds > b.seconds; });
  }

  // Blocking-edge attribution.
  {
    std::map<std::string, CauseGroup> groups;
    for (const Node& nd : g.nodes) {
      if (nd.kind != NodeKind::Wait) continue;
      const double sec = nd.dur_us() / 1e6;
      an.host_blocked_s += sec;
      const bool attributed = nd.cause >= 0 && !nd.site.empty();
      if (attributed) an.attributed_s += sec;
      const std::string on =
          nd.cause >= 0 ? g.nodes[static_cast<std::size_t>(nd.cause)].label : "unresolved";
      const std::string key = nd.site + "|" + nd.label + "|" + on;
      CauseGroup& cg = groups[key];
      cg.site = nd.site;
      cg.kind = nd.label;
      cg.waiting_on = on;
      ++cg.count;
      cg.seconds += sec;
    }
    for (auto& [key, cg] : groups) an.blocking.push_back(std::move(cg));
    std::sort(an.blocking.begin(), an.blocking.end(),
              [](const CauseGroup& a, const CauseGroup& b) { return a.seconds > b.seconds; });
    an.attributed_frac = an.host_blocked_s > 0.0 ? an.attributed_s / an.host_blocked_s : 1.0;
  }
  return an;
}

// ---------------------------------------------------------------------------
// What-if list scheduler (model assumptions in DESIGN.md §12).

Prediction simulate(const Graph& g, const Scenario& sc) {
  Prediction p;
  p.scenario = sc;
  if (g.host_order.empty()) {
    p.wall_s = g.wall_s();
    p.speedup = 1.0;
    return p;
  }

  // Tasks each chain node enqueues, in enqueue order.
  std::unordered_map<std::int64_t, std::vector<std::size_t>> enq_at;
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    const Node& nd = g.nodes[i];
    if (nd.kind == NodeKind::Task && nd.enq_after >= 0) enq_at[nd.enq_after].push_back(i);
  }
  for (auto& [chain, tasks] : enq_at)
    std::sort(tasks.begin(), tasks.end(), [&](std::size_t a, std::size_t b) {
      return g.nodes[a].enq_us < g.nodes[b].enq_us;
    });

  // Cross-stream dependencies (dev.wait_event): task → its cause tasks.
  std::unordered_map<std::size_t, std::vector<std::size_t>> task_deps;
  for (const Edge& e : g.edges)
    if (e.kind == EdgeKind::Cause && g.nodes[e.dst].kind == NodeKind::Task)
      task_deps[static_cast<std::size_t>(e.dst)].push_back(static_cast<std::size_t>(e.src));

  const int vstreams = std::max(1, sc.streams);
  const auto vstream_of = [&](const Node& tk) -> int {
    // Update-phase work rotates over the extra streams by iteration; panel
    // and unphased work keeps virtual stream 0 (the paper's lookahead
    // pipeline shape: the panel round-trips must not queue behind the
    // trailing update).
    if (vstreams == 1 || tk.phase != 2 || tk.iter < 0) return 0;
    return 1 + static_cast<int>(tk.iter % (vstreams >= kInfiniteStreams
                                               ? kInfiniteStreams
                                               : vstreams - 1));
  };

  struct StreamState {
    double max_all = 0.0;              // finish of every simulated task
    double max_keep = 0.0;             // finish of non-elidable tasks
    std::map<std::int32_t, double> upd;  // per-iteration update-compute finish
  };
  std::map<std::uint64_t, StreamState> sstate;
  std::map<std::pair<std::uint64_t, int>, double> vready;
  std::unordered_map<std::size_t, double> finish;
  std::vector<Interval> busy, blocked;

  double t = 0.0;
  for (const std::int64_t idx : g.host_order) {
    const Node& nd = g.nodes[static_cast<std::size_t>(idx)];
    if (nd.kind == NodeKind::Work || nd.kind == NodeKind::Mark) {
      t += nd.dur_us();
      const auto it = enq_at.find(idx);
      if (it == enq_at.end()) continue;
      for (const std::size_t ti : it->second) {
        const Node& tk = g.nodes[ti];
        double d = tk.dur_us();
        if (sc.dev_scale != 1.0 && is_dev_compute(tk.label)) d *= sc.dev_scale;
        double begin = std::max(t, vready[{tk.stream, vstream_of(tk)}]);
        if (const auto dep = task_deps.find(ti); dep != task_deps.end())
          for (const std::size_t c : dep->second)
            if (const auto f = finish.find(c); f != finish.end())
              begin = std::max(begin, f->second);
        const double end = begin + d;
        vready[{tk.stream, vstream_of(tk)}] = end;
        finish[ti] = end;
        if (d > 0.0) busy.push_back(Interval{begin, end});
        StreamState& ss = sstate[tk.stream];
        ss.max_all = std::max(ss.max_all, end);
        // Lookahead may leave any update-phase task in flight except d2h:
        // a landed d2h is host data the driver may read right after the
        // wait, so eliding it would break a true dependency (DESIGN.md §12).
        const bool elidable =
            tk.phase == 2 && tk.iter >= 0 && !starts_with(tk.label, "d2h");
        if (elidable) {
          double& f = ss.upd[tk.iter];
          f = std::max(f, end);
        } else {
          ss.max_keep = std::max(ss.max_keep, end);
        }
      }
    } else if (nd.kind == NodeKind::Wait) {
      double until = t;
      if (starts_with(nd.label, "event_wait")) {
        // Event waits pin the host to a position in the stream, the last
        // task enqueued before the record (the staging-buffer reuse
        // guards, DESIGN.md §7 U2). A lookahead pipeline double-buffers
        // those stages, so a wait on a recent update-phase task
        // disappears; everything else remains a hard dependency.
        bool elided = false;
        if (nd.cause >= 0) {
          // The newest update generation in flight at this wait: the wait's
          // own iteration in update phase, the previous one in panel phase
          // (iteration j's update is not enqueued yet while panel j runs).
          const std::int32_t newest = nd.phase == 2 ? nd.iter : nd.iter - 1;
          const Node& cause = g.nodes[static_cast<std::size_t>(nd.cause)];
          elided = sc.lookahead > 0 && cause.phase == 2 && cause.iter >= 0 &&
                   cause.iter > newest - sc.lookahead;
        }
        if (const auto f = finish.find(static_cast<std::size_t>(nd.cause)); nd.cause >= 0 &&
            !elided && f != finish.end())
          until = std::max(until, f->second);
      } else {
        const StreamState& ss = sstate[nd.stream];
        if (sc.lookahead <= 0 || nd.iter < 0) {
          until = std::max(until, ss.max_all);
        } else {
          // k-panel lookahead: the newest k update generations in flight
          // may stay in flight; everything older (and every non-elidable
          // task) still drains. The newest generation is nd.iter in update
          // phase and nd.iter-1 in panel phase — see the event_wait case.
          const std::int32_t newest = nd.phase == 2 ? nd.iter : nd.iter - 1;
          double m = ss.max_keep;
          for (const auto& [it2, f] : ss.upd)
            if (it2 <= newest - sc.lookahead) m = std::max(m, f);
          until = std::max(until, m);
        }
      }
      if (until > t) {
        blocked.push_back(Interval{t, until});
        t = until;
      }
    }
  }
  double wall = t;
  for (const auto& [key, r] : vready) wall = std::max(wall, r);

  p.wall_s = wall / 1e6;
  p.device_busy_s = merge_union(busy) / 1e6;
  p.host_blocked_s = merge_union(blocked) / 1e6;
  const double both = intersect_len(busy, blocked) / 1e6;
  p.overlap_fraction =
      p.device_busy_s > 0.0 ? (p.device_busy_s - both) / p.device_busy_s : 0.0;
  p.speedup = p.wall_s > 0.0 ? g.wall_s() / p.wall_s : 0.0;
  return p;
}

std::vector<Scenario> default_scenarios(double dev_gemm_scale) {
  std::vector<Scenario> out;
  out.push_back(Scenario{"replay", 0, 1, 1.0});
  out.push_back(Scenario{"lookahead1_streams2", 1, 2, 1.0});
  out.push_back(Scenario{"lookahead2_streams3", 2, 3, 1.0});
  out.push_back(Scenario{"infinite_streams", 0, kInfiniteStreams, 1.0});
  if (dev_gemm_scale > 0.0 && dev_gemm_scale < 1.0)
    out.push_back(Scenario{"lookahead1_roofline_gemm", 1, 2, dev_gemm_scale});
  return out;
}

// ---------------------------------------------------------------------------
// Reporting.

std::string section_json(const Graph& g, const Analysis& a,
                         const std::vector<Prediction>& what_if) {
  std::string out;
  out.reserve(1024);
  out += "{\"nodes\":" + std::to_string(g.nodes.size());
  out += ",\"edges\":" + std::to_string(g.edges.size());
  out += ",\"tasks\":" + std::to_string(g.count(NodeKind::Task));
  out += ",\"waits\":" + std::to_string(g.count(NodeKind::Wait));
  out += ",\"spans\":" + std::to_string(g.count(NodeKind::Span));
  out += ",\"marks\":" + std::to_string(g.count(NodeKind::Mark));
  out += ",\"wall_s\":";
  append_num(out, a.wall_s, 17);
  out += ",\"critical_path_s\":";
  append_num(out, a.critical_path_s, 17);
  out += ",\"critical_path_data_s\":";
  append_num(out, a.critical_path_data_s, 17);
  out += ",\"host_blocked_s\":";
  append_num(out, a.host_blocked_s, 17);
  out += ",\"attributed_s\":";
  append_num(out, a.attributed_s, 17);
  out += ",\"attributed_frac\":";
  append_num(out, a.attributed_frac, 17);
  out += ",\"critical_path\":[";
  const std::size_t path_n = std::min<std::size_t>(a.path.size(), 10);
  for (std::size_t i = 0; i < path_n; ++i) {
    if (i > 0) out += ',';
    out += "{\"label\":\"";
    append_escaped(out, a.path[i].label);
    out += "\",\"count\":" + std::to_string(a.path[i].count);
    out += ",\"seconds\":";
    append_num(out, a.path[i].seconds, 17);
    out += "}";
  }
  out += "],\"blocking_edges\":[";
  const std::size_t block_n = std::min<std::size_t>(a.blocking.size(), 5);
  for (std::size_t i = 0; i < block_n; ++i) {
    const CauseGroup& cg = a.blocking[i];
    if (i > 0) out += ',';
    out += "{\"site\":\"";
    append_escaped(out, cg.site);
    out += "\",\"kind\":\"";
    append_escaped(out, cg.kind);
    out += "\",\"waiting_on\":\"";
    append_escaped(out, cg.waiting_on);
    out += "\",\"count\":" + std::to_string(cg.count);
    out += ",\"seconds\":";
    append_num(out, cg.seconds, 17);
    out += "}";
  }
  out += "],\"what_if\":[";
  for (std::size_t i = 0; i < what_if.size(); ++i) {
    const Prediction& p = what_if[i];
    if (i > 0) out += ',';
    out += "{\"scenario\":\"";
    append_escaped(out, p.scenario.name);
    out += "\",\"lookahead\":" + std::to_string(p.scenario.lookahead);
    out += ",\"streams\":" + std::to_string(p.scenario.streams);
    out += ",\"dev_scale\":";
    append_num(out, p.scenario.dev_scale, 17);
    out += ",\"wall_s\":";
    append_num(out, p.wall_s, 17);
    out += ",\"device_busy_s\":";
    append_num(out, p.device_busy_s, 17);
    out += ",\"host_blocked_s\":";
    append_num(out, p.host_blocked_s, 17);
    out += ",\"overlap_fraction\":";
    append_num(out, p.overlap_fraction, 17);
    out += ",\"speedup_vs_recorded\":";
    append_num(out, p.speedup, 17);
    out += "}";
  }
  out += "]}";
  return out;
}

void print_analysis(const Graph& g, const Analysis& a,
                    const std::vector<Prediction>& what_if, std::FILE* out) {
  std::fprintf(out, "\n-- dag: %zu nodes / %zu edges (%zu tasks, %zu waits) over %.4f s --\n",
               g.nodes.size(), g.edges.size(), g.count(NodeKind::Task), g.count(NodeKind::Wait),
               a.wall_s);
  std::fprintf(out,
               "critical path %.4f s (%.1f%% of wall), data-only %.4f s; "
               "host blocked %.4f s, %.1f%% attributed\n",
               a.critical_path_s, a.wall_s > 0.0 ? 100.0 * a.critical_path_s / a.wall_s : 0.0,
               a.critical_path_data_s, a.host_blocked_s, 100.0 * a.attributed_frac);
  if (!a.blocking.empty()) {
    std::fprintf(out, "top blocking edges:\n");
    const std::size_t top = std::min<std::size_t>(a.blocking.size(), 5);
    for (std::size_t i = 0; i < top; ++i) {
      const CauseGroup& cg = a.blocking[i];
      std::fprintf(out, "  %8.3f ms  x%-6llu %-44s -> %s\n", 1e3 * cg.seconds,
                   static_cast<unsigned long long>(cg.count),
                   cg.site.empty() ? cg.kind.c_str() : cg.site.c_str(), cg.waiting_on.c_str());
    }
  }
  if (!a.path.empty()) {
    std::fprintf(out, "critical path composition:\n");
    const std::size_t top = std::min<std::size_t>(a.path.size(), 5);
    for (std::size_t i = 0; i < top; ++i)
      std::fprintf(out, "  %8.3f ms  x%-6llu %s\n", 1e3 * a.path[i].seconds,
                   static_cast<unsigned long long>(a.path[i].count), a.path[i].label.c_str());
  }
  if (!what_if.empty()) {
    std::fprintf(out, "what-if (list-scheduled replay):\n");
    std::fprintf(out, "  %-26s %10s %8s %8s %11s\n", "scenario", "wall (s)", "speedup",
                 "overlap", "blocked (s)");
    for (const Prediction& p : what_if)
      std::fprintf(out, "  %-26s %10.4f %7.2fx %8.3f %11.4f\n", p.scenario.name.c_str(),
                   p.wall_s, p.speedup, p.overlap_fraction, p.host_blocked_s);
  }
}

}  // namespace fth::obs::dag
