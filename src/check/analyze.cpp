#include "check/analyze.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/analyze_lex.hpp"

namespace fth::check::analyze {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

/// Words that cannot be the host-buffer root of a transfer argument:
/// type spellings, namespaces, and qualifiers that precede the actual
/// variable in expressions like `a.view(...)` or `host.cview()`.
bool is_type_word(const std::string& id) {
  static const std::set<std::string> kWords = {
      "MatrixView", "VectorView", "DMatrixView", "DVectorView",
      "Matrix",     "Vector",     "const",       "double",
      "float",      "int",        "auto",        "void",
      "char",       "bool",       "unsigned",    "index_t",
      "std",        "hybrid",     "detail",      "lapack",
      "blas",       "check",      "fth",         "static_cast",
      "size_t",     "uint64_t",   "int64_t",
  };
  return kWords.count(id) > 0;
}

/// FT-protected checksum storage, by the repo's naming convention: a
/// device-resident buffer whose name carries `chk` (d_chke_, d_chkw_,
/// d_chkc_, d_chkr_, ...). The stale-checksum-write rule guards tasks
/// that declare writes over these roots (DESIGN.md §11.4).
bool is_protected_chk_root(const std::string& root) {
  return starts_with(root, "d_") && contains(root, "chk");
}

/// The symbolic analogue of the runtime checker's transfer table: one
/// still-in-flight asynchronous copy (access.cpp host_touch_locked).
struct Transfer {
  char dir = 'h';    ///< 'h' = h2d (host side is read), 'd' = d2h (host side is written)
  std::string root;  ///< host-buffer root symbol, e.g. y_host
  std::string stream;  ///< stream argument's root symbol, e.g. s_ / sd (pool drivers)
  std::uint64_t ticket = 0;
  int line = 0;        ///< line the copy was enqueued on
  bool fresh = false;  ///< created by the summary replay currently running
  bool carried = false;  ///< crossed a loop back-edge from the previous iteration
};

/// Event binding: the Event's symbolic ticket (see apply_record), the
/// recording stream, and whether that stream is a DevicePool member's
/// (unbounded-pool-wait rule).
struct EventBind {
  std::uint64_t marker = 0;
  std::string stream;
  bool pool = false;
};

// ---- function summaries (DESIGN.md §11.3) -----------------------------------

/// One effect root of a declared task footprint.
struct EffRoot {
  std::string root;
  bool write = false;
};

/// One abstract stream-timeline operation. A function summary is the
/// sequence of these its body performs; call sites replay the callee's
/// (resolved) sequence with argument-to-parameter substitution.
struct Op {
  enum Kind {
    kTick,       ///< n FIFO-ordered device ops with no host footprint
    kTransfer,   ///< copy_{h2d,d2h}[_async]; dir, root (host side), stream, dest
    kEnqueue,    ///< declared task: label, stream, effects
    kRecord,     ///< event = stream.record() binding
    kWaitHost,   ///< event.wait()/ready()/wait_for() from the host
    kWaitEvent,  ///< consumer.wait_event(event)
    kSync,       ///< stream.synchronize()
    kHostTouch,  ///< host-code mention of a root; flag = write
    kHostView,   ///< hybrid::host_view(...)
    kEncode,     ///< *encode* call: sanctions checksum writes until the next verify
    kVerify,     ///< *verify* call: a checksum comparison point
    kCall,       ///< unresolved call to a TU-local function (resolve_summary)
  };
  Kind kind = kTick;
  int line = 0;
  int n = 1;           ///< kTick: how many tickets; kWaitHost: 0 for ready() polls
  char dir = 'd';      ///< kTransfer
  bool flag = false;   ///< kTransfer: synchronous; kWaitHost: bounded; kHostTouch: write
  int scope = -1;      ///< kSync/kHostView: token index of the enclosing `{`
  std::string a;       ///< root / event / label / callee name
  std::string b;       ///< stream / consumer
  std::string dest;    ///< kTransfer h2d: destination root (re-encode marker)
  std::string sig;     ///< kTransfer: argument-token signature (dead-transfer)
  std::vector<EffRoot> effects;    ///< kEnqueue
  std::vector<std::string> args;   ///< kCall: argument root symbols
};

struct Summary {
  std::vector<std::string> params;
  std::vector<Op> raw;       ///< as emitted (kCall unresolved)
  std::vector<Op> ops;       ///< resolved: kCall spliced, names substituted
  bool resolved = false;
  bool resolving = false;    ///< cycle guard: a recursive call is dropped
};

/// A top-level function definition found in the TU.
struct FuncDef {
  std::string name;  ///< unqualified; empty for operators/lambdas
  std::vector<std::string> params;
  std::size_t body_begin = 0;  ///< first token inside the `{`
  std::size_t body_end = 0;    ///< the matching `}` token
};

struct Engine {
  std::string file;
  std::vector<Token> t;
  std::vector<Finding> findings;
  Stats stats;
  bool effects_scoped = false;  ///< undeclared-task rule applies to this file

  std::vector<FuncDef> defs;
  std::map<std::string, Summary> summaries;

  // ---- walk mode ----
  bool summarizing = false;       ///< pass 1: emit ops, no findings
  std::vector<Op>* sink = nullptr;  ///< pass-1 op sink
  int replay_depth = 0;           ///< > 0 while splicing a callee summary
  int second_pass_depth = 0;      ///< > 0 inside a loop body's second walk
  int replay_line = 0;            ///< call-site line replay findings anchor on
  std::string replay_callee;      ///< helper name, for replay messages

  // ---- per-function symbolic stream state ----
  std::uint64_t ticket = 0;  ///< tickets issued so far (tail of the stream)
  std::uint64_t synced = 0;  ///< highest ticket known host-ordered
  std::vector<Transfer> live;
  std::map<std::string, EventBind> events;
  /// consumer stream -> producer stream -> highest marker ticket a
  /// wait_event edge carries across. Device-side ordering, so host
  /// retirement (synced) never changes it.
  std::map<std::string, std::map<std::string, std::uint64_t>> xedges;
  /// Streams bound from a DevicePool member (`sd = pool.stream(d)`).
  std::set<std::string> pool_streams;
  /// Checksum roots re-encoded from host truth since the last verify,
  /// and the wildcard an *encode* call raises (stale-checksum-write).
  std::set<std::string> reencoded;
  bool reencode_all = false;
  std::set<std::string> dedupe;

  // ---- performance plane (DESIGN.md §11.5) --------------------------------
  bool perf = false;  ///< compute the advisory overlap rules for this file
  /// Brace-scope index per token (token index of the nearest enclosing
  /// `{`, -1 at namespace level): a host_view justifies a synchronize()
  /// only from the SAME scope — the drain-before-unwrap idiom — so a
  /// barrier serving a conditional hook branch is still reported as
  /// movable into that branch.
  std::vector<int> scope_of;
  /// One deferred advisory finding. A candidate can be observed on
  /// several symbolic paths (both loop walks, every reaching branch):
  /// it is reported only if some path fires it and NO path justifies it
  /// — the "redundant on every path" soundness rule.
  struct PerfCand {
    int line = 0;
    std::string rule;
    std::string message;
    std::string fixit;
    std::vector<std::string> tasks;
    bool fired = false;
    bool justified = false;
  };
  std::map<std::string, std::size_t> perf_index;  ///< line:rule:detail -> slot
  std::vector<PerfCand> perf_cands;
  /// A synchronize() under evaluation: open until the next device-side
  /// op (fired — the barrier served no host consumption) or a
  /// justifying host consumption (same-scope host_view, or a host write
  /// of a deferrable h2d source).
  struct OpenSync {
    bool open = false;
    std::size_t slot = 0;
    int scope = -1;
    char flavor = 'e';  ///< 'e' no live transfer, 'n' narrowable, 'd' deferrable h2d
    std::set<std::string> h2d_roots;  ///< flavor 'd': host sources still live
  };
  OpenSync osync_;
  /// dead-transfer state: host roots with an unconsumed d2h and device
  /// roots with an unconsumed h2d (root -> enqueue line + the full
  /// argument-token signature); any device op may read an h2d
  /// destination, any host mention consumes a d2h destination. Two
  /// copies only pair up when their argument signatures match exactly —
  /// fetching two *different* blocks of one matrix is routine, not a
  /// dead transfer.
  struct PendingCopy {
    int line = 0;
    std::string sig;
  };
  std::map<std::string, PendingCopy> d2h_unread_;
  std::map<std::string, PendingCopy> h2d_dest_unread_;
  /// Ticket of the newest declared task enqueue: a barrier joining an
  /// unretired *task* may be consuming host state the task writes
  /// through a by-reference capture (the detect() idiom), which the
  /// effects system cannot see — the no-live-transfer flavor stays
  /// silent there.
  std::uint64_t last_task_ticket_ = 0;
  /// false-serialization adjacency: the previous declared task, valid
  /// while the stream tail is still its ticket.
  struct PrevEnq {
    bool valid = false;
    std::uint64_t ticket = 0;
    std::string stream, label;
    int line = 0;
    std::vector<EffRoot> effects;
  };
  PrevEnq prev_enq_;

  void reset_function_state() {
    ticket = 0;
    synced = 0;
    live.clear();
    events.clear();
    xedges.clear();
    pool_streams.clear();
    reencoded.clear();
    reencode_all = false;
    osync_.open = false;
    d2h_unread_.clear();
    h2d_dest_unread_.clear();
    prev_enq_.valid = false;
    last_task_ticket_ = 0;
  }

  bool counting() const { return !summarizing && second_pass_depth == 0; }

  // ---- token helpers ----
  bool is_punct(std::size_t i, const char* p) const {
    return i < t.size() && t[i].kind == Tok::Punct && t[i].text == p;
  }
  bool is_ident(std::size_t i) const { return i < t.size() && t[i].kind == Tok::Ident; }

  /// Index of the `)` matching the `(` at `open` (paren depth only;
  /// literals are already tokenized away). Clamps on imbalance.
  std::size_t close_paren(std::size_t open) const {
    int d = 0;
    for (std::size_t j = open; j < t.size(); ++j) {
      if (t[j].kind != Tok::Punct) continue;
      if (t[j].text == "(") {
        ++d;
      } else if (t[j].text == ")") {
        if (--d == 0) return j;
      }
    }
    return t.empty() ? 0 : t.size() - 1;
  }

  std::size_t close_square(std::size_t open) const {
    int d = 0;
    for (std::size_t j = open; j < t.size(); ++j) {
      if (t[j].kind != Tok::Punct) continue;
      if (t[j].text == "[") {
        ++d;
      } else if (t[j].text == "]") {
        if (--d == 0) return j;
      }
    }
    return t.empty() ? 0 : t.size() - 1;
  }

  std::size_t close_brace(std::size_t open) const {
    int d = 0;
    for (std::size_t j = open; j < t.size(); ++j) {
      if (t[j].kind != Tok::Punct) continue;
      if (t[j].text == "{") {
        ++d;
      } else if (t[j].text == "}") {
        if (--d == 0) return j;
      }
    }
    return t.empty() ? 0 : t.size() - 1;
  }

  /// Top-level argument ranges of the call whose `(` is at `open`.
  /// Commas nested in parens, braces (lambda bodies) or squares
  /// (captures, subscripts) do not split.
  std::vector<std::pair<std::size_t, std::size_t>> split_args(std::size_t open,
                                                              std::size_t close) const {
    std::vector<std::pair<std::size_t, std::size_t>> args;
    int pd = 0, bd = 0, sd = 0;
    std::size_t b = open + 1;
    for (std::size_t j = open; j <= close && j < t.size(); ++j) {
      if (t[j].kind != Tok::Punct) continue;
      const std::string& x = t[j].text;
      if (x == "(") {
        ++pd;
      } else if (x == ")") {
        if (--pd == 0) {
          if (j > b) args.push_back({b, j});
          break;
        }
      } else if (x == "{") {
        ++bd;
      } else if (x == "}") {
        --bd;
      } else if (x == "[") {
        ++sd;
      } else if (x == "]") {
        --sd;
      } else if (x == "," && pd == 1 && bd == 0 && sd == 0) {
        args.push_back({b, j});
        b = j + 1;
      }
    }
    return args;
  }

  /// A `(` at `open` is a *call* (not a declaration) iff the first
  /// argument reads like an expression: an identifier followed by `,`
  /// or `.`. Parameter lists read `Type& name` / `MatrixView<...>`.
  bool is_call(std::size_t open) const {
    return is_ident(open + 1) && (is_punct(open + 2, ",") || is_punct(open + 2, "."));
  }

  /// The `{` at `bi` opens a function body iff, skipping trailing
  /// cv/noexcept-style qualifiers, it is preceded by `)`. Namespace,
  /// class and initializer braces are preceded by identifiers or `=`.
  bool opens_function(std::size_t bi) const {
    if (bi == 0) return false;
    std::size_t j = bi - 1;
    while (j > 0 && t[j].kind == Tok::Ident &&
           (t[j].text == "const" || t[j].text == "noexcept" || t[j].text == "override" ||
            t[j].text == "final" || t[j].text == "mutable"))
      --j;
    return t[j].kind == Tok::Punct && t[j].text == ")";
  }

  /// First plausible host-buffer symbol in an argument range: an
  /// identifier that is not a type/namespace word, not qualified
  /// (`x::`) or templated (`x<`), and stands where a variable would
  /// (`a`, `a.view(...)`, `a[...]`).
  std::string root_of(std::size_t b, std::size_t e) const {
    for (std::size_t j = b; j < e && j < t.size(); ++j) {
      if (t[j].kind != Tok::Ident) continue;
      const std::string& id = t[j].text;
      if (is_type_word(id)) continue;
      if (j + 1 < e && t[j + 1].kind == Tok::Punct &&
          (t[j + 1].text == "::" || t[j + 1].text == "<"))
        continue;
      if (j + 1 >= e) return id;
      if (t[j + 1].kind == Tok::Punct) {
        const std::string& nx = t[j + 1].text;
        if (nx == "." || nx == "," || nx == ")" || nx == "[") return id;
      }
    }
    return {};
  }

  /// Does the postfix expression starting at the identifier at `i` end
  /// up on the left of an assignment? Mirrors the runtime rule that a
  /// live h2d transfer races host *writes* only.
  bool is_write(std::size_t i) const {
    std::size_t j = i + 1;
    while (j < t.size() && t[j].kind == Tok::Punct) {
      if (t[j].text == "(") {
        j = close_paren(j) + 1;
      } else if (t[j].text == "[") {
        j = close_square(j) + 1;
      } else if ((t[j].text == "." || t[j].text == "->") && is_ident(j + 1)) {
        j += 2;
      } else {
        break;
      }
    }
    return j < t.size() && t[j].kind == Tok::Punct &&
           (t[j].text == "=" || t[j].text == "+=" || t[j].text == "-=" ||
            t[j].text == "*=" || t[j].text == "/=");
  }

  void report(int line, const char* rule, std::string message, std::string edge = {}) {
    if (summarizing) return;  // pass 2 re-walks everything and reports
    std::string key = std::to_string(line);
    key += ':';
    key += rule;
    if (!dedupe.insert(std::move(key)).second) return;
    findings.push_back({file, line, rule, std::move(message), std::move(edge)});
  }

  // ---- symbolic stream operations ----

  void retire_through(std::uint64_t thru) {
    std::vector<Transfer> keep;
    for (auto& tr : live)
      if (tr.ticket > thru) keep.push_back(std::move(tr));
    live.swap(keep);
    if (thru > synced) synced = thru;
  }

  void retire_all() {
    live.clear();
    synced = ticket;
  }

  void drop_root(const std::string& root) {
    std::vector<Transfer> keep;
    for (auto& tr : live)
      if (tr.root != root) keep.push_back(std::move(tr));
    live.swap(keep);
  }

  /// The line a replay finding anchors on (the call site) and the
  /// suffix naming the helper whose summary surfaced it.
  int anchor(int op_line) const { return replay_depth > 0 ? replay_line : op_line; }
  std::string via() const {
    return replay_depth > 0 ? " (via the summary of '" + replay_callee + "(...)')" : "";
  }

  // ---- performance-plane machinery (DESIGN.md §11.5) ----------------------

  std::size_t perf_slot(int line, const char* rule, const std::string& detail) {
    std::string key = std::to_string(line);
    key += ':';
    key += rule;
    key += ':';
    key += detail;
    const auto it = perf_index.find(key);
    if (it != perf_index.end()) return it->second;
    const std::size_t slot = perf_cands.size();
    perf_index.emplace(std::move(key), slot);
    PerfCand c;
    c.line = line;
    c.rule = rule;
    perf_cands.push_back(std::move(c));
    return slot;
  }

  void close_open_sync(bool justified) {
    if (!osync_.open) return;
    PerfCand& c = perf_cands[osync_.slot];
    (justified ? c.justified : c.fired) = true;
    osync_.open = false;
  }

  /// Classify a synchronize() against the symbolic state *before* it
  /// retires anything, and open a deferred candidate. Silent cases: a
  /// barrier with nothing enqueued past the host-ordered point (the
  /// poisoned-/error-path drains), and a barrier whose stream tail is a
  /// live d2h (the fetch-join idiom — the barrier IS the consume edge,
  /// and no narrower edge is cheaper at the tail).
  void eval_sync_candidate(const Op& op) {
    if (replay_depth > 0) return;  // anchor belongs to the helper's own walk
    if (ticket <= synced) return;
    // Pool-member drains (DESIGN.md §13) are out of model: the engine
    // keeps one symbolic ticket counter across all streams, so it
    // cannot tell which member's work a per-member synchronize() joins.
    if (!op.b.empty() && (pool_streams.count(op.b) > 0 || contains(op.b, "pool"))) return;
    std::uint64_t tail_ticket = 0;
    bool all_h2d = true;
    char tail_dir = 'h';
    std::string tail_root;
    int tail_line = 0;
    std::set<std::string> h2d_roots;
    for (const auto& tr : live) {
      if (tr.ticket >= tail_ticket) {
        tail_ticket = tr.ticket;
        tail_dir = tr.dir;
        tail_root = tr.root;
        tail_line = tr.line;
      }
      if (tr.dir == 'h') h2d_roots.insert(tr.root);
      else all_h2d = false;
    }
    char flavor;
    std::string msg, fix;
    if (live.empty()) {
      // An unretired declared task may write host state through a
      // by-reference capture (the detect() result struct): that join
      // is required and invisible to the effects system — stay silent.
      if (last_task_ticket_ > synced) return;
      flavor = 'e';
      msg = "synchronize() blocks the host on " + std::to_string(ticket - synced) +
            " enqueued device op(s) with no in-flight transfer left to retire: the stream "
            "drains with nothing host-visible produced by the barrier";
      fix = "drop the barrier; if a host_view/hook follows on some branch, synchronize() "
            "inside that branch only, so the common path overlaps the device tail";
    } else if (tail_ticket < ticket) {
      flavor = 'n';
      msg = "synchronize() waits for the whole stream (tail ticket " + std::to_string(ticket) +
            ") when the newest host-visible obligation is the " +
            (tail_dir == 'h' ? "h2d" : "d2h") + " of '" + tail_root + "' enqueued at line " +
            std::to_string(tail_line) + " (ticket " + std::to_string(tail_ticket) +
            "): every device op after that transfer is serialized against the host for "
            "nothing";
      fix = "record an Event right after the transfer at line " + std::to_string(tail_line) +
            " and wait on that Event here, letting the remaining enqueued work overlap host "
            "code";
    } else if (tail_dir == 'h' && all_h2d) {
      flavor = 'd';
      msg = "synchronize() joins h2d transfer(s) that only read host buffer(s) ('" +
            tail_root + "'): the host does not rewrite them before the next device "
            "operation, so nothing needs retiring at this barrier";
      fix = "record an Event after the h2d and wait on it immediately before the next host "
            "write of '" + tail_root + "' (or rely on a later dominating barrier) instead "
            "of blocking here";
    } else {
      return;  // tail is a d2h fetch-join: the barrier is the consume edge
    }
    const std::size_t slot = perf_slot(op.line, "coarse-synchronize", "");
    PerfCand& c = perf_cands[slot];
    if (c.message.empty()) {
      c.message = std::move(msg);
      c.fixit = std::move(fix);
    }
    osync_ = OpenSync{true, slot, op.scope, flavor, std::move(h2d_roots)};
  }

  void perf_fire(int line, const char* rule, const std::string& detail, std::string msg,
                 std::string fix, std::vector<std::string> tasks = {}) {
    PerfCand& c = perf_cands[perf_slot(line, rule, detail)];
    c.fired = true;
    if (c.message.empty()) {
      c.message = std::move(msg);
      c.fixit = std::move(fix);
      c.tasks = std::move(tasks);
    }
  }

  static bool footprints_conflict(const std::vector<EffRoot>& a, const std::vector<EffRoot>& b) {
    for (const EffRoot& x : a)
      for (const EffRoot& y : b)
        if (x.root == y.root && (x.write || y.write)) return true;
    return false;
  }

  /// The advisory-plane transition function, run before each op's
  /// correctness application (so it sees the state the op is about to
  /// change). Candidates are only *opened* on direct walks
  /// (replay_depth == 0 — a helper's own pass-2 walk anchors its
  /// findings); state consumption/invalidation runs on replays too.
  void perf_pre(const Op& op) {
    if (!perf || summarizing) return;
    switch (op.kind) {
      case Op::kTick:
        close_open_sync(false);
        h2d_dest_unread_.clear();
        prev_enq_.valid = false;
        break;
      case Op::kTransfer:
        close_open_sync(false);
        prev_enq_.valid = false;
        if (op.dir == 'd') {
          h2d_dest_unread_.clear();  // the copy reads device memory
          if (!op.a.empty()) {
            const auto it = d2h_unread_.find(op.a);
            if (it != d2h_unread_.end() && replay_depth == 0 && !op.sig.empty() &&
                it->second.sig == op.sig) {
              perf_fire(it->second.line, "dead-transfer", op.a,
                        "d2h into host buffer '" + op.a +
                            "' is overwritten by the identical d2h at line " +
                            std::to_string(op.line) + " with no host read of '" + op.a +
                            "' in between: the first copy's payload is never consumed",
                        "drop the first d2h (or read its payload before re-fetching)");
            }
            if (replay_depth == 0) d2h_unread_[op.a] = {op.line, op.sig};
            else d2h_unread_.erase(op.a);
          }
        } else {
          if (!op.a.empty()) d2h_unread_.erase(op.a);  // the copy reads the host source
          if (!op.dest.empty()) {
            const auto it = h2d_dest_unread_.find(op.dest);
            if (it != h2d_dest_unread_.end() && replay_depth == 0 && !op.sig.empty() &&
                it->second.sig == op.sig) {
              perf_fire(it->second.line, "dead-transfer", op.dest,
                        "h2d into device buffer '" + op.dest +
                            "' is overwritten by the identical h2d at line " +
                            std::to_string(op.line) +
                            " before any device op could read it: the first copy is dead",
                        "drop the first h2d (or move the device op that consumes it in "
                        "between)");
            }
            if (replay_depth == 0) h2d_dest_unread_[op.dest] = {op.line, op.sig};
            else h2d_dest_unread_.erase(op.dest);
          }
        }
        break;
      case Op::kEnqueue: {
        close_open_sync(false);
        last_task_ticket_ = ticket + 1;  // the ticket apply_enqueue is about to assign
        h2d_dest_unread_.clear();  // the task may read any device buffer
        for (const EffRoot& eff : op.effects) d2h_unread_.erase(eff.root);
        if (replay_depth > 0) {
          prev_enq_.valid = false;
          break;
        }
        // Same-label neighbours are batch siblings (a correction or
        // verification sweep): distributing a batch is the DevicePool's
        // job (§13), not a per-pair wait_event rewrite.
        const bool eligible = op.a != "?" && !op.effects.empty() && !op.b.empty();
        if (eligible && prev_enq_.valid && prev_enq_.ticket == ticket &&
            prev_enq_.stream == op.b && prev_enq_.label != op.a &&
            !footprints_conflict(prev_enq_.effects, op.effects)) {
          perf_fire(op.line, "false-serialization", prev_enq_.label + "/" + op.a,
                    "tasks \"" + prev_enq_.label + "\" (line " +
                        std::to_string(prev_enq_.line) + ") and \"" + op.a +
                        "\" run back-to-back on stream '" + op.b +
                        "' with disjoint declared footprints: FIFO order serializes work "
                        "that could overlap",
                    "enqueue one of the pair on a second stream (or pool member) and order "
                    "only genuine conflicts with record()/wait_event()",
                    {prev_enq_.label, op.a});
        }
        if (eligible) {
          prev_enq_.valid = true;
          prev_enq_.ticket = ticket + 1;  // the ticket apply_enqueue is about to assign
          prev_enq_.stream = op.b;
          prev_enq_.label = op.a;
          prev_enq_.line = op.line;
          prev_enq_.effects = op.effects;
        } else {
          prev_enq_.valid = false;
        }
        break;
      }
      case Op::kRecord:
        close_open_sync(false);
        prev_enq_.valid = false;
        break;
      case Op::kWaitEvent: {
        close_open_sync(false);
        prev_enq_.valid = false;
        if (replay_depth > 0) break;
        const auto it = events.find(op.a);
        if (it == events.end() || op.b.empty() || it->second.stream.empty()) break;
        const std::size_t slot = perf_slot(op.line, "redundant-wait", op.a);
        PerfCand& c = perf_cands[slot];
        bool redundant = it->second.stream == op.b;  // same-stream FIFO already orders it
        std::string why = "the Event was recorded on the consumer's own stream, whose FIFO "
                          "order already provides the edge";
        if (!redundant) {
          const auto ci = xedges.find(op.b);
          if (ci != xedges.end()) {
            const auto ei = ci->second.find(it->second.stream);
            if (ei != ci->second.end() && ei->second >= it->second.marker) {
              redundant = true;
              why = "an earlier wait_event already carries an edge at/after this marker "
                    "from the producer's stream";
            }
          }
        }
        if (redundant) {
          c.fired = true;
          if (c.message.empty()) {
            c.message = "wait_event on Event '" + op.a + "' orders nothing new: " + why;
            c.fixit = "drop the wait_event (the happens-before edge it names already exists)";
          }
        } else {
          c.justified = true;
        }
        break;
      }
      case Op::kSync:
        close_open_sync(false);
        prev_enq_.valid = false;
        eval_sync_candidate(op);
        break;
      case Op::kWaitHost: {
        if (replay_depth > 0) break;
        if (op.n == 0) break;  // ready() is a poll, never a blocking edge
        const auto it = events.find(op.a);
        if (it == events.end()) break;
        // Pool-member Events are out of model: one symbolic ticket
        // counter across all member streams means a wait on stream A
        // can look retired by a wait on stream B (DESIGN.md §13).
        if (it->second.pool) break;
        const std::size_t slot = perf_slot(op.line, "redundant-wait", op.a);
        PerfCand& c = perf_cands[slot];
        if (it->second.marker <= synced) {
          c.fired = true;
          if (c.message.empty()) {
            c.message = "wait on Event '" + op.a + "' whose marker (ticket " +
                        std::to_string(it->second.marker) +
                        ") is already host-ordered (through ticket " + std::to_string(synced) +
                        ") on every path reaching it: the edge retires nothing and only "
                        "costs a host-device handshake";
            c.fixit = "drop the wait, or re-record the Event after the work it is meant to "
                      "guard";
          }
        } else {
          c.justified = true;
        }
        break;
      }
      case Op::kHostTouch:
        if (osync_.open && osync_.flavor == 'd' && op.flag &&
            osync_.h2d_roots.count(op.a) > 0) {
          close_open_sync(true);  // the barrier guarded this rewrite of the h2d source
        }
        d2h_unread_.erase(op.a);
        break;
      case Op::kHostView:
        if (osync_.open) close_open_sync(op.scope >= 0 && op.scope == osync_.scope);
        d2h_unread_.clear();
        h2d_dest_unread_.clear();
        break;
      default: break;
    }
  }

  // ---- pass-1 op emission -----------------------------------------------

  void emit(Op op) {
    if (sink == nullptr) return;
    if (op.kind == Op::kTick && !sink->empty() && sink->back().kind == Op::kTick) {
      sink->back().n += op.n;  // coalesce runs of anonymous device ops
      return;
    }
    if (op.kind == Op::kHostTouch) {
      // Summaries carry only the touches a caller could alias: the
      // function's parameters and class members (trailing underscore).
      // Keep the first read and first write per root — the earliest
      // touch is the one with the fewest retirements before it, so if
      // it does not race at a call site, no later one can.
      const bool aliasable =
          ends_with(op.a, "_") ||
          std::find(cur_params_.begin(), cur_params_.end(), op.a) != cur_params_.end();
      if (!aliasable) return;
      for (const Op& prev : *sink)
        if (prev.kind == Op::kHostTouch && prev.a == op.a && prev.flag == op.flag) return;
    }
    sink->push_back(std::move(op));
  }

  std::vector<std::string> cur_params_;  ///< pass-1: parameters of the function being summarized

  // ---- op application (shared by direct walking and summary replay) ------

  void apply_tick(const Op& op) { ticket += static_cast<std::uint64_t>(op.n); }

  void apply_transfer(const Op& op) {
    ++ticket;
    if (counting()) ++stats.transfers;
    // An h2d from host truth into protected checksum storage is the
    // re-encode marker the stale-checksum-write rule looks for.
    if (op.dir == 'h' && is_protected_chk_root(op.dest)) reencoded.insert(op.dest);
    if (op.flag) {
      // Synchronous copy = enqueue + synchronize(): everything earlier
      // (itself included) is host-ordered when the call returns.
      retire_all();
      return;
    }
    if (!op.a.empty())
      live.push_back({op.dir, op.a, op.b, ticket, op.line, replay_depth > 0, false});
  }

  const char* race_rule(const Transfer& tr) const {
    return tr.carried ? "loop-carried-race" : "transfer-race";
  }

  void apply_enqueue(const Op& op) {
    ++ticket;
    if (counting()) ++stats.enqueues;
    check_task_effects(op);
  }

  /// The declared-footprint checks: cross-stream/loop-carried races and
  /// stale checksum writes. Pool drivers (DESIGN.md §13): a task
  /// enqueued on one stream whose declared footprint covers the host
  /// side of a transfer still in flight on ANOTHER stream races it —
  /// FIFO order only covers same-stream pairs — unless a wait_event
  /// edge carries the producer's Event marker (recorded at/after the
  /// transfer) into the consumer's queue.
  void check_task_effects(const Op& op) {
    const std::string& consumer = op.b;
    for (const EffRoot& eff : op.effects) {
      if (eff.write && is_protected_chk_root(eff.root) && !reencode_all &&
          reencoded.count(eff.root) == 0) {
        report(anchor(op.line), "stale-checksum-write",
               "task \"" + op.a + "\" declares FTH_WRITES over the FT-protected checksum "
                   "storage '" + eff.root +
                   "' with no dominating re-encode since the last checksum comparison" +
                   via() + "; the maintained code would drift from what the next verify "
                   "compares (DESIGN.md §7)",
               "re-encode '" + eff.root +
                   "' from host truth (an h2d refresh, or an *encode* call) between the "
                   "last verify and this write");
      }
      if (consumer.empty()) continue;
      const Transfer* hit = nullptr;
      for (const auto& tr : live) {
        if (tr.root != eff.root || tr.stream.empty() || tr.stream == consumer) continue;
        if (tr.fresh && replay_depth > 0) continue;  // callee-internal pair, checked there
        const auto ci = xedges.find(consumer);
        bool covered = false;
        if (ci != xedges.end()) {
          const auto ei = ci->second.find(tr.stream);
          covered = ei != ci->second.end() && ei->second >= tr.ticket;
        }
        if (!covered) {
          hit = &tr;
          break;
        }
      }
      if (hit == nullptr) continue;
      const std::string nticket = std::to_string(hit->ticket);
      const char* rule = hit->carried ? "loop-carried-race" : "cross-stream-race";
      const std::string carried_note =
          hit->carried ? " of the previous loop iteration (the transfer crossed the "
                         "back-edge still in flight)"
                       : "";
      report(anchor(op.line), rule,
             "task \"" + op.a + "\" on stream '" + consumer + "' declares '" + eff.root +
                 "' while the " + (hit->dir == 'h' ? "h2d" : "d2h") +
                 " transfer enqueued at line " + std::to_string(hit->line) + carried_note +
                 " (ticket " + nticket + ") is still in flight on stream '" + hit->stream +
                 "': no wait_event edge orders the transfer first" + via(),
             consumer + ".wait_event(<Event recorded on '" + hit->stream +
                 "' at/after ticket " + nticket + ">) before enqueueing this task");
      drop_root(eff.root);  // one missing edge -> one finding, not one per task
    }
  }

  void apply_record(const Op& op) {
    // At run time record() enqueues nothing, but the function may be
    // entered with its callers' work in flight: a tick of its own keeps an
    // Event recorded before this function's first enqueue from reading as
    // already host-ordered (redundant-wait).
    ++ticket;
    const bool pool = pool_streams.count(op.b) > 0 || contains(op.b, "pool");
    events[op.a] = {ticket, op.b, pool};
    if (counting()) ++stats.records;
  }

  void apply_wait_host(const Op& op) {
    const auto it = events.find(op.a);
    if (it == events.end()) return;  // unknown receiver: not an ordering edge
    if (!op.flag && it->second.pool) {
      report(anchor(op.line), "unbounded-pool-wait",
             "plain wait() on Event '" + op.a + "' recorded on DevicePool member stream '" +
                 it->second.stream + "'" + via() +
                 "; a lost device dooms its stream and a plain wait() hangs forever "
                 "(DESIGN.md §13)",
             "use wait_for(timeout) and treat a false return as the device-lost signal");
    }
    retire_through(it->second.marker);
    if (counting()) ++stats.waits;
  }

  void apply_wait_event(const Op& op) {
    ++ticket;  // the wait marker is itself an enqueued task
    const auto it = events.find(op.a);
    if (op.b.empty() || it == events.end()) return;
    const std::string& producer = it->second.stream;
    if (producer.empty()) return;
    std::uint64_t& thru = xedges[op.b][producer];
    if (it->second.marker > thru) thru = it->second.marker;
  }

  void apply_sync(const Op&) {
    retire_all();
    if (counting()) ++stats.syncs;
  }

  void apply_host_touch(const Op& op) {
    const Transfer* hit = nullptr;
    for (const auto& tr : live) {
      if (tr.root != op.a) continue;
      if (tr.fresh && replay_depth > 0) continue;  // callee-internal pair, checked there
      if (tr.dir == 'd') {  // d2h writes the host side: any mention races
        hit = &tr;
        break;
      }
      if (hit == nullptr) hit = &tr;  // h2d candidate; keep looking for a d2h
    }
    if (hit == nullptr) return;
    if (hit->dir == 'h' && !op.flag) return;  // h2d only reads host memory
    const std::string nticket = std::to_string(hit->ticket);
    const std::string carried_note =
        hit->carried ? " of the previous loop iteration (the transfer crossed the loop "
                       "back-edge still in flight)"
                     : "";
    report(anchor(op.line), race_rule(*hit),
           "host " + std::string(hit->dir == 'h' ? "write to '" : "access to '") + op.a +
               "' races the in-flight " + (hit->dir == 'h' ? "h2d" : "d2h") +
               " transfer enqueued at line " + std::to_string(hit->line) + carried_note +
               " (ticket " + nticket + "): no happens-before edge orders the transfer first" +
               via(),
           "wait on an Event recorded at/after ticket " + nticket +
               " of the stream (or synchronize()) before this access");
    drop_root(op.a);  // one missing edge -> one finding, not one per mention
  }

  void apply_host_view(const Op& op) {
    if (synced >= ticket) return;
    report(anchor(op.line), "stream-not-idle",
           "hybrid::host_view() reached with enqueued work possibly in flight "
           "(tail ticket " +
               std::to_string(ticket) + ", host-ordered through " + std::to_string(synced) +
               ")" + via(),
           "synchronize() the stream (or wait on an Event recorded at/after ticket " +
               std::to_string(ticket) + ") before taking a host view");
    retire_all();  // the runtime gate would stop here; avoid cascades
  }

  void apply_op(const Op& op) {
    perf_pre(op);
    switch (op.kind) {
      case Op::kTick: apply_tick(op); break;
      case Op::kTransfer: apply_transfer(op); break;
      case Op::kEnqueue: apply_enqueue(op); break;
      case Op::kRecord: apply_record(op); break;
      case Op::kWaitHost: apply_wait_host(op); break;
      case Op::kWaitEvent: apply_wait_event(op); break;
      case Op::kSync: apply_sync(op); break;
      case Op::kHostTouch: apply_host_touch(op); break;
      case Op::kHostView: apply_host_view(op); break;
      case Op::kEncode: reencode_all = true; break;
      case Op::kVerify:
        reencoded.clear();
        reencode_all = false;
        break;
      case Op::kCall: break;  // resolved away before application
    }
  }

  /// Emit (pass 1) and apply an op. Application runs in both passes so
  /// pass-1 state (event/pool-stream bindings) is available when
  /// marking summary ops; findings are suppressed while summarizing.
  void step(Op op) {
    emit(op);
    apply_op(op);
  }

  // ---- summary resolution -------------------------------------------------

  /// Substitute callee-local names for call-site names: parameters map
  /// to argument roots, members (trailing `_`) are shared state and
  /// pass through, everything else is prefixed with the callee name so
  /// helper locals can never collide with caller locals.
  static std::string subst_name(const std::string& name,
                                const std::map<std::string, std::string>& map,
                                const std::string& callee) {
    if (name.empty()) return name;
    const auto it = map.find(name);
    if (it != map.end()) return it->second;
    if (ends_with(name, "_")) return name;
    if (contains(name, "::")) return name;  // already qualified by a nested splice
    return callee + "::" + name;
  }

  static Op subst_op(Op op, const std::map<std::string, std::string>& map,
                     const std::string& callee) {
    op.a = subst_name(op.a, map, callee);
    op.b = subst_name(op.b, map, callee);
    op.dest = subst_name(op.dest, map, callee);
    for (EffRoot& eff : op.effects) eff.root = subst_name(eff.root, map, callee);
    for (std::string& arg : op.args) arg = subst_name(arg, map, callee);
    return op;
  }

  static std::map<std::string, std::string> param_map(const std::vector<std::string>& params,
                                                      const std::vector<std::string>& args) {
    std::map<std::string, std::string> map;
    for (std::size_t k = 0; k < params.size() && k < args.size(); ++k)
      if (!params[k].empty() && !args[k].empty()) map[params[k]] = args[k];
    return map;
  }

  /// Flatten kCall ops: splice each callee's resolved summary with
  /// argument substitution. Recursion/cycles degrade to a single tick
  /// (the call still advances the timeline) — the may-union stays
  /// conservative for everything a bounded expansion can see.
  void resolve_summary(const std::string& name) {
    Summary& sum = summaries.at(name);
    if (sum.resolved || sum.resolving) return;
    sum.resolving = true;
    for (const Op& op : sum.raw) {
      if (op.kind != Op::kCall) {
        sum.ops.push_back(op);
        continue;
      }
      const auto it = summaries.find(op.a);
      if (it == summaries.end() || it->second.resolving) {
        sum.ops.push_back({Op::kTick, op.line});
        continue;
      }
      resolve_summary(op.a);
      const auto map = param_map(it->second.params, op.args);
      for (const Op& callee_op : it->second.ops)
        sum.ops.push_back(subst_op(callee_op, map, op.a));
    }
    sum.resolving = false;
    sum.resolved = true;
  }

  /// Replay a callee's resolved ops at a call site. Transfers the
  /// callee starts are marked fresh for the duration (their pairs with
  /// callee-internal touches were checked when the callee's own body
  /// was analyzed); whatever is still live when the replay ends joins
  /// the caller's timeline as ordinary in-flight work.
  void splice_call(const std::string& callee, const std::vector<std::string>& args,
                   int call_line) {
    const Summary& sum = summaries.at(callee);
    const auto map = param_map(sum.params, args);
    const int prev_line = replay_line;
    const std::string prev_callee = replay_callee;
    ++replay_depth;
    replay_line = call_line;
    replay_callee = callee;
    if (counting()) ++stats.calls;
    for (const Op& op : sum.ops) apply_op(subst_op(op, map, callee));
    --replay_depth;
    replay_line = prev_line;
    replay_callee = prev_callee;
    if (replay_depth == 0)
      for (auto& tr : live) tr.fresh = false;
  }

  // ---- token-level recognizers (build the op, then step it) ---------------

  /// h2d destination writes into the gehrd checksum row iff it spells
  /// `d_e_ ... .block(n_, ...)` — the one device region whose stale
  /// copy silently corrupts detection (DESIGN.md §7).
  bool dest_is_chkrow(std::size_t b, std::size_t e) const {
    bool saw_de = false;
    for (std::size_t j = b; j < e && j < t.size(); ++j) {
      if (t[j].kind != Tok::Ident) continue;
      if (t[j].text == "d_e_") saw_de = true;
      if (saw_de && t[j].text == "block" && is_punct(j + 1, "(") && is_ident(j + 2) &&
          t[j + 2].text == "n_")
        return true;
    }
    return false;
  }

  std::size_t handle_transfer(const std::string& id, std::size_t i, std::size_t open) {
    const std::size_t close = close_paren(open);
    const bool is_async = ends_with(id, "_async");
    const char dir = id.find("h2d") != std::string::npos ? 'h' : 'd';
    const auto args = split_args(open, close);
    Op op{Op::kTransfer, t[i].line};
    op.dir = dir;
    op.flag = !is_async;
    if (!args.empty()) op.b = root_of(args[0].first, args[0].second);
    if (args.size() >= 3) {
      const auto& host_arg = dir == 'h' ? args[1] : args.back();
      op.a = root_of(host_arg.first, host_arg.second);
      // Full source+destination token signature: two copies are "the
      // same transfer" (dead-transfer rule) only when it matches.
      for (std::size_t j = args[1].first; j < args.back().second && j < t.size(); ++j) {
        op.sig += t[j].text;
        op.sig += ' ';
      }
      if (dir == 'h') {
        const auto& dest = args.back();
        op.dest = root_of(dest.first, dest.second);
        if (dest_is_chkrow(dest.first, dest.second) && op.a != "new_chkrow_" &&
            op.a != "ckpt_chkrow_") {
          report(t[i].line, "chkrow-reencode",
                 "h2d into the checksum row d_e_.block(n_, ...) sourced from '" + op.a +
                     "'; the row must be re-encoded from host data (new_chkrow_) or "
                     "restored from the rollback checkpoint (ckpt_chkrow_)");
        }
      }
    }
    step(std::move(op));
    return close;
  }

  std::size_t handle_enqueue(std::size_t i, std::size_t open) {
    const std::size_t close = close_paren(open);
    Op op{Op::kEnqueue, t[i].line};
    op.a = open + 1 < close && t[open + 1].kind == Tok::String ? t[open + 1].text : "?";
    op.b = i >= 2 && is_punct(i - 1, ".") && is_ident(i - 2) ? t[i - 2].text : "";
    // Locate the FTH_TASK_EFFECTS(...) declaration once: the
    // undeclared-task rule wants it present, the footprint rules read
    // the declared roots out of it.
    std::size_t fx = 0;
    for (std::size_t j = open; j < close; ++j) {
      if (t[j].kind == Tok::Ident && t[j].text == "FTH_TASK_EFFECTS") {
        fx = j;
        break;
      }
    }
    if (effects_scoped && fx == 0) {
      report(t[i].line, "undeclared-task",
             "stream task \"" + op.a +
                 "\" enqueued without FTH_TASK_EFFECTS(...); declare its "
                 "FTH_READS/FTH_WRITES footprint so fth::analyze and "
                 "FTH_CHECK_EFFECTS=1 can see it");
    }
    for (std::size_t j = fx; fx != 0 && j < close; ++j) {
      if (t[j].kind != Tok::Ident ||
          (t[j].text != "FTH_READS" && t[j].text != "FTH_WRITES") || !is_punct(j + 1, "("))
        continue;
      const bool write = t[j].text == "FTH_WRITES";
      const std::size_t fo = j + 1;
      const std::size_t fc = close_paren(fo);
      for (const auto& arg : split_args(fo, fc)) {
        const std::string root = root_of(arg.first, arg.second);
        if (!root.empty()) op.effects.push_back({root, write});
      }
      j = fc;
    }
    // over-wide-effects (perf plane): a declared root the task lambda —
    // its capture list included — never mentions is a phantom
    // footprint: it manufactures ordering edges for nothing and blocks
    // the overlap the false-serialization rule looks for.
    if (perf && !summarizing && fx != 0 && is_punct(fx + 1, "(")) {
      const std::size_t decl_close = close_paren(fx + 1);
      // Local aliases bound earlier in the enclosing function: after
      // `auto ce = d_chke_.view();` a capture of `ce` in the lambda IS
      // a use of root d_chke_.
      std::map<std::string, std::set<std::string>> alias;
      for (const FuncDef& def : defs) {
        if (!(def.body_begin <= i && i < def.body_end)) continue;
        for (std::size_t j = def.body_begin; j < i; ++j) {
          if (!is_ident(j) || !is_punct(j + 1, "=")) continue;
          if (j > 0 && t[j - 1].kind == Tok::Punct &&
              (t[j - 1].text == "." || t[j - 1].text == "->" || t[j - 1].text == "::"))
            continue;
          std::set<std::string>& binds = alias[t[j].text];
          int pd = 0;
          for (std::size_t k = j + 2; k < i; ++k) {
            if (t[k].kind == Tok::Punct) {
              if (t[k].text == "(") ++pd;
              else if (t[k].text == ")") --pd;
              else if (t[k].text == ";" && pd <= 0) break;
            } else if (t[k].kind == Tok::Ident) {
              binds.insert(t[k].text);
            }
          }
        }
        break;
      }
      for (const EffRoot& eff : op.effects) {
        bool mentioned = false;
        for (std::size_t j = decl_close + 1; j < close && !mentioned; ++j) {
          if (t[j].kind != Tok::Ident) continue;
          if (t[j].text == eff.root) {
            mentioned = true;
            break;
          }
          const auto it = alias.find(t[j].text);
          mentioned = it != alias.end() && it->second.count(eff.root) > 0;
        }
        if (!mentioned) {
          perf_fire(t[i].line, "over-wide-effects", eff.root,
                    "task \"" + op.a + "\" declares " +
                        (eff.write ? "FTH_WRITES" : "FTH_READS") + " over '" + eff.root +
                        "' but the task body never mentions that root: the phantom "
                        "footprint manufactures happens-before edges and blocks overlap",
                    "narrow the FTH_TASK_EFFECTS declaration to the roots the body "
                    "actually unwraps");
        }
      }
    }
    step(std::move(op));
    return close;  // the task lambda runs in task context, not here
  }

  /// `Stream& sd = pool.stream(d)` binds a DevicePool member's stream:
  /// Events recorded on it may never be waited unbounded.
  void note_pool_stream_binding(std::size_t i) {
    // i is the `stream` identifier: ... sd = <receiver> . stream ( ...
    if (i < 4 || !(is_punct(i - 1, ".") || is_punct(i - 1, "->")) || !is_ident(i - 2)) return;
    if (!contains(t[i - 2].text, "pool")) return;
    if (!is_punct(i - 3, "=") || !is_ident(i - 4)) return;
    pool_streams.insert(t[i - 4].text);
  }

  /// The statement boundary that ends a brace-less loop body: the first
  /// `;` at paren depth 0 (a `for (...) stmt;` body is one statement).
  std::size_t statement_end(std::size_t b, std::size_t limit) const {
    int pd = 0;
    for (std::size_t j = b; j < limit && j < t.size(); ++j) {
      if (t[j].kind != Tok::Punct) continue;
      if (t[j].text == "(") ++pd;
      else if (t[j].text == ")") --pd;
      else if (t[j].text == "{") return close_brace(j) + 1;
      else if (t[j].text == ";" && pd == 0) return j;
    }
    return limit;
  }

  /// Walk a loop body twice: the two-iteration fixpoint (DESIGN.md
  /// §11.3). Transfers enqueued during iteration 1 and still live at
  /// the back-edge are marked carried; during iteration 2 a race
  /// against one reports loop-carried-race. Stats count iteration 1
  /// only; a loop body whose state is stationary (the repo's drivers,
  /// the lookahead pipeline) needs no further iterations.
  void walk_loop_body(std::size_t b, std::size_t e) {
    const std::uint64_t entry_ticket = ticket;
    // dead-transfer pairing never crosses an iteration boundary: a
    // loop re-issuing "the same" copy usually targets a different
    // block/member each trip (the pool scatter/gather loops).
    d2h_unread_.clear();
    h2d_dest_unread_.clear();
    walk_range(b, e);
    for (auto& tr : live)
      if (tr.ticket > entry_ticket) tr.carried = true;
    ++second_pass_depth;
    d2h_unread_.clear();
    h2d_dest_unread_.clear();
    walk_range(b, e);
    --second_pass_depth;
    for (auto& tr : live) tr.carried = false;
    d2h_unread_.clear();
    h2d_dest_unread_.clear();
  }

  // ---- the walker ---------------------------------------------------------

  void walk_range(std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e && i < t.size(); ++i) {
      const Token& tk = t[i];
      if (tk.kind != Tok::Ident) continue;
      const std::string& id = tk.text;
      const bool dotted = i > 0 && (is_punct(i - 1, ".") || is_punct(i - 1, "->"));
      const std::size_t open = is_punct(i + 1, "(") ? i + 1 : 0;

      // Loop-carried pass (pass 2 only; pass 1 summarizes the body
      // linearly — its internal back-edges are its own analysis).
      if (!summarizing && is_loop_keyword(id)) {
        if ((id == "for" || id == "while") && open != 0) {
          const std::size_t hc = close_paren(open);
          walk_range(open + 1, hc);  // header: init/cond/incr are host code
          if (is_punct(hc + 1, ";")) {  // `do {...} while (...);` tail
            i = hc + 1;
            continue;
          }
          std::size_t bb, be;
          if (is_punct(hc + 1, "{")) {
            bb = hc + 2;
            be = close_brace(hc + 1);
          } else {
            bb = hc + 1;
            be = statement_end(hc + 1, e);
          }
          walk_loop_body(bb, be);
          i = be;
          continue;
        }
        if (id == "do" && is_punct(i + 1, "{")) {
          const std::size_t be = close_brace(i + 1);
          walk_loop_body(i + 2, be);
          i = be;  // the trailing while(...) header is walked as host code
          continue;
        }
      }

      if (open != 0 &&
          (id == "copy_h2d_async" || id == "copy_d2h_async" || id == "copy_h2d" ||
           id == "copy_d2h") &&
          is_call(open)) {
        i = handle_transfer(id, i, open);
        continue;
      }
      if (open != 0 && id == "enqueue" &&
          (dotted || (open + 1 < t.size() && t[open + 1].kind == Tok::String))) {
        i = handle_enqueue(i, open);
        continue;
      }
      if (open != 0 && dotted && id == "stream") {
        note_pool_stream_binding(i);
        // fall through: the receiver/arguments are ordinary host code
      }
      if (open != 0 && dotted && id == "record" && is_punct(open + 1, ")")) {
        if (i >= 4 && is_ident(i - 2) && is_punct(i - 3, "=") && is_ident(i - 4)) {
          Op op{Op::kRecord, tk.line};
          op.a = t[i - 4].text;
          op.b = t[i - 2].text;
          step(std::move(op));
        } else {
          step({Op::kTick, tk.line});  // unbound: modeled like a bound record
        }
        i = open + 1;
        continue;
      }
      if (open != 0 && dotted && (id == "wait" || id == "ready" || id == "wait_for")) {
        // wait_for's timeout path returns false WITHOUT the edge; every
        // driver throws (device_lost) on that path, so straight-line
        // code after the call is ordered — same edge as wait(). ready()
        // is a non-blocking poll: an edge when true, never a hang.
        const std::string receiver = i >= 2 && is_ident(i - 2) ? t[i - 2].text : "";
        const bool member_or_param =
            ends_with(receiver, "_") ||
            std::find(cur_params_.begin(), cur_params_.end(), receiver) != cur_params_.end();
        if (events.count(receiver) > 0 || (summarizing && member_or_param)) {
          Op op{Op::kWaitHost, tk.line};
          op.a = receiver;
          op.flag = id != "wait";          // bounded (wait_for) or non-blocking (ready)
          op.n = id == "ready" ? 0 : 1;    // perf plane: polls are never redundant edges
          step(std::move(op));
          i = close_paren(open);
          continue;
        }
        // Unknown receiver (condition_variable etc.): not an ordering
        // edge; its arguments are plain host code, keep scanning.
        continue;
      }
      if (open != 0 && dotted && id == "wait_event") {
        const std::size_t close = close_paren(open);
        Op op{Op::kWaitEvent, tk.line};
        op.b = i >= 2 && is_ident(i - 2) ? t[i - 2].text : "";
        op.a = root_of(open + 1, close);
        step(std::move(op));
        i = close;
        continue;
      }
      if (open != 0 && dotted && id == "synchronize") {
        Op op{Op::kSync, tk.line};
        op.scope = i < scope_of.size() ? scope_of[i] : -1;
        op.b = i >= 2 && is_ident(i - 2) ? t[i - 2].text : "";
        step(std::move(op));
        i = close_paren(open);
        continue;
      }
      if (open != 0 && id == "host_view" && is_call(open)) {
        Op op{Op::kHostView, tk.line};
        op.scope = i < scope_of.size() ? scope_of[i] : -1;
        step(std::move(op));
        i = close_paren(open);
        continue;
      }
      if (dotted && id == "in_task") {
        report(tk.line, "in-task-context",
               ".in_task() outside an enqueued stream task; host code takes "
               "hybrid::host_view() after the stream drained");
        continue;
      }
      if (open != 0 && ends_with(id, "_async") && is_call(open)) {
        step({Op::kTick, tk.line});  // device kernel launch: FIFO-ordered, no host footprint
        i = close_paren(open);
        continue;
      }

      // Checksum-discipline markers: an *encode* call sanctions task
      // writes into protected storage until the next *verify* call (the
      // comparison the maintained code must agree with).
      const bool is_encode_call = open != 0 && contains(id, "encode");
      const bool is_verify_call = open != 0 && contains(id, "verify");
      if (is_encode_call) step({Op::kEncode, tk.line});
      if (is_verify_call) step({Op::kVerify, tk.line});

      // A call to a TU-local function: splice its summary into this
      // timeline instead of skipping it (DESIGN.md §11.3). Member
      // calls on other objects (`x.f()`) are out of reach by design.
      if (open != 0 && !dotted && !(i > 0 && is_punct(i - 1, "->")) &&
          !(i > 0 && is_punct(i - 1, "::")) && summaries.count(id) > 0 &&
          !(i > 0 && is_ident(i - 1) && t[i - 1].text != "return")) {
        const std::size_t close = close_paren(open);
        Op op{Op::kCall, tk.line};
        op.a = id;
        for (const auto& arg : split_args(open, close))
          op.args.push_back(root_of(arg.first, arg.second));
        if (summarizing) {
          emit(op);
          step({Op::kTick, tk.line});  // keep pass-1 state moving past the call
        } else {
          splice_call(op.a, op.args, tk.line);
        }
        i = close;
        continue;
      }

      if (is_encode_call || is_verify_call) {
        i = close_paren(open);
        continue;
      }

      // Plain host code: check the mention against the live set.
      if (i > 0 && t[i - 1].kind == Tok::Punct &&
          (t[i - 1].text == "." || t[i - 1].text == "->" || t[i - 1].text == "::"))
        continue;  // `x.id` / `ns::id` names a member of something else
      Op op{Op::kHostTouch, tk.line};
      op.a = id;
      op.flag = is_write(i);
      step(std::move(op));
    }
  }

  // ---- function discovery -------------------------------------------------

  /// Parameter names of the list whose `(` is at `po`: the last
  /// identifier of each argument range before any default `=`.
  std::vector<std::string> param_names(std::size_t po, std::size_t pc) {
    std::vector<std::string> names;
    for (const auto& arg : split_args(po, pc)) {
      std::string name;
      for (std::size_t j = arg.first; j < arg.second; ++j) {
        if (t[j].kind == Tok::Punct && t[j].text == "=") break;
        if (t[j].kind == Tok::Ident && !is_type_word(t[j].text)) name = t[j].text;
      }
      names.push_back(std::move(name));
    }
    return names;
  }

  /// Backward scan from the `)` that precedes a function body's `{` to
  /// its matching `(`, then the identifier before it is the function
  /// name (unqualified; empty for lambdas and operators).
  void find_definitions() {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!is_punct(i, "{")) continue;
      if (!opens_function(i)) continue;
      // The `)` before the body (skipping qualifiers):
      std::size_t close = i - 1;
      while (close > 0 && t[close].kind == Tok::Ident) --close;
      if (!is_punct(close, ")")) continue;
      int d = 0;
      std::size_t open = close;
      while (open > 0) {
        if (t[open].kind == Tok::Punct) {
          if (t[open].text == ")") ++d;
          if (t[open].text == "(" && --d == 0) break;
        }
        --open;
      }
      // A constructor body's `{` is preceded by the `)` of the LAST
      // member initializer, not the parameter list: climb `name(args)`
      // groups back through the init list (`, name(args)` ...) until
      // the `:` that follows the real parameter list's `)`.
      while (open > 1 && is_ident(open - 1) &&
             (is_punct(open - 2, ",") || is_punct(open - 2, ":"))) {
        const std::size_t prev_close = open - 3;  // the `)` before `,`/`:`
        if (!is_punct(prev_close, ")")) break;
        int dd = 0;
        std::size_t po = prev_close;
        while (po > 0) {
          if (t[po].kind == Tok::Punct) {
            if (t[po].text == ")") ++dd;
            if (t[po].text == "(" && --dd == 0) break;
          }
          --po;
        }
        const bool was_ctor_params = is_punct(open - 2, ":");
        open = po;
        close = prev_close;
        if (was_ctor_params) break;
      }
      FuncDef def;
      if (open > 0 && is_ident(open - 1)) def.name = t[open - 1].text;
      def.params = param_names(open, close);
      def.body_begin = i + 1;
      def.body_end = close_brace(i);
      defs.push_back(std::move(def));
      i = defs.back().body_end;  // nested lambdas belong to this body
    }
  }

  // ---- driver -------------------------------------------------------------

  void run() {
    find_definitions();

    // Brace-scope map for the host_view-justifies-synchronize rule. Only
    // compound-STATEMENT braces open a scope: a brace-initializer (an
    // aggregate literal in an argument list, `Ctx{.a = b}`) is transparent,
    // so a host_view spelled inside one still counts as the enclosing
    // block's scope. A `{` is a statement block iff the previous token
    // could not end an expression needing a brace-init.
    scope_of.assign(t.size(), -1);
    {
      std::vector<int> stack;        // open statement scopes
      std::vector<char> is_scope;    // per open brace: did it push a scope?
      for (std::size_t i = 0; i < t.size(); ++i) {
        scope_of[i] = stack.empty() ? -1 : stack.back();
        if (t[i].kind != Tok::Punct) continue;
        if (t[i].text == "{") {
          bool stmt = i == 0;
          if (i > 0) {
            const std::string& p = t[i - 1].text;
            stmt = p == ")" || p == "{" || p == "}" || p == ";" || p == "]" ||
                   p == ":" || p == "else" || p == "do" || p == "try";
          }
          is_scope.push_back(stmt ? 1 : 0);
          if (stmt) stack.push_back(static_cast<int>(i));
        } else if (t[i].text == "}" && !is_scope.empty()) {
          if (is_scope.back() && !stack.empty()) stack.pop_back();
          is_scope.pop_back();
        }
      }
    }

    // Pass 1: one linear walk per function, emitting its op summary. Every
    // definition is registered first, so a call to a function defined
    // further down is recognized (and spliced at resolution) too.
    summarizing = true;
    for (const FuncDef& def : defs)
      if (!def.name.empty()) summaries[def.name];
    for (const FuncDef& def : defs) {
      if (def.name.empty()) continue;
      Summary& sum = summaries[def.name];  // redefinitions: last one wins
      sum = Summary{};
      sum.params = def.params;
      reset_function_state();
      cur_params_ = def.params;
      sink = &sum.raw;
      walk_range(def.body_begin, def.body_end);
      sink = nullptr;
    }
    summarizing = false;
    for (auto& [name, sum] : summaries) {
      (void)sum;
      resolve_summary(name);
    }

    // Pass 2: analyze every body with summaries spliced at call sites
    // and loop bodies walked twice.
    for (const FuncDef& def : defs) {
      reset_function_state();
      cur_params_ = def.params;
      ++stats.functions;
      walk_range(def.body_begin, def.body_end);
      // A synchronize() still open at function end retired more than
      // any host consumption in this function required.
      close_open_sync(false);
    }

    // Flush the deferred advisory candidates: fired on some path,
    // justified on none (DESIGN.md §11.5 soundness rule).
    if (perf) {
      std::vector<const PerfCand*> out;
      for (const PerfCand& c : perf_cands)
        if (c.fired && !c.justified && !c.message.empty()) out.push_back(&c);
      std::stable_sort(out.begin(), out.end(), [](const PerfCand* a, const PerfCand* b) {
        return a->line != b->line ? a->line < b->line : a->rule < b->rule;
      });
      for (const PerfCand* c : out) {
        Finding f;
        f.file = file;
        f.line = c->line;
        f.rule = c->rule;
        f.message = c->message;
        f.missing_edge = c->fixit;
        f.perf = true;
        f.tasks = c->tasks;
        findings.push_back(std::move(f));
      }
    }
  }
};

}  // namespace

bool in_scope(const std::string& rel_path) {
  if (!(ends_with(rel_path, ".hpp") || ends_with(rel_path, ".cpp"))) return false;
  return starts_with(rel_path, "src/hybrid/") || starts_with(rel_path, "src/ft/") ||
         starts_with(rel_path, "examples/") || starts_with(rel_path, "bench/");
}

namespace {

/// `// fth-perf: expect <rule> [<rule>...]` markers, scanned from the
/// raw text (the lexer drops comments): marker line -> expected rules.
/// A marker covers perf findings up to three lines below it, so it can
/// sit on the line above the flagged construct.
std::map<int, std::set<std::string>> expect_markers(const std::string& content) {
  std::map<int, std::set<std::string>> markers;
  int line = 1;
  std::size_t pos = 0;
  while (pos <= content.size()) {
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    const std::string text = content.substr(pos, eol - pos);
    const std::size_t m = text.find("fth-perf:");
    if (m != std::string::npos) {
      std::size_t k = text.find("expect", m);
      if (k != std::string::npos) {
        k += 6;
        while (k < text.size()) {
          while (k < text.size() && !(std::islower(static_cast<unsigned char>(text[k])))) ++k;
          std::size_t b = k;
          while (k < text.size() &&
                 (std::islower(static_cast<unsigned char>(text[k])) || text[k] == '-'))
            ++k;
          if (k > b) markers[line].insert(text.substr(b, k - b));
        }
      }
    }
    line += 1;
    pos = eol + 1;
    if (eol == content.size()) break;
  }
  return markers;
}

}  // namespace

std::vector<Finding> analyze_source(const std::string& rel_path, const std::string& content,
                                    Stats* stats, const Options& opts) {
  if (!in_scope(rel_path)) return {};
  Engine engine;
  engine.file = rel_path;
  engine.t = lex(content);
  // stream.hpp's label-only forwarder is the sanctioned hatch for
  // generic tasks (tests, tools); everything in the drivers declares.
  engine.effects_scoped =
      (starts_with(rel_path, "src/hybrid/") || starts_with(rel_path, "src/ft/")) &&
      rel_path != "src/hybrid/stream.hpp";
  // The perf plane covers the drivers and examples only: bench/
  // serializes deliberately (a timed region must drain before the
  // clock stops), and the hybrid runtime core (device.cpp's
  // synchronous copy primitives, the stream/pool machinery) IS the
  // synchronization being rationed, not a consumer of it.
  engine.perf = opts.perf &&
                (starts_with(rel_path, "src/ft/") || starts_with(rel_path, "examples/") ||
                 (starts_with(rel_path, "src/hybrid/") && contains(rel_path, "hybrid_")));
  engine.run();
  if (stats != nullptr) stats->accumulate(engine.stats);
  if (engine.perf) {
    const auto markers = expect_markers(content);
    if (!markers.empty()) {
      for (Finding& f : engine.findings) {
        if (!f.perf) continue;
        for (int off = 0; off <= 3 && !f.expected; ++off) {
          const auto it = markers.find(f.line - off);
          f.expected = it != markers.end() && it->second.count(f.rule) > 0;
        }
      }
    }
  }
  return std::move(engine.findings);
}

std::string stats_lines(const Stats& stats, std::size_t files) {
  std::string out;
  const auto kv = [&out](const char* key, std::size_t value) {
    out += key;
    out += '=';
    out += std::to_string(value);
    out += '\n';
  };
  kv("files", files);
  kv("functions", stats.functions);
  kv("enqueues", stats.enqueues);
  kv("transfers", stats.transfers);
  kv("records", stats.records);
  kv("waits", stats.waits);
  kv("syncs", stats.syncs);
  kv("calls", stats.calls);
  return out;
}

std::string format(const Finding& finding) {
  std::string out = finding.file;
  out += ':';
  out += std::to_string(finding.line);
  out += ": [";
  out += finding.rule;
  out += "] ";
  if (finding.expected) out += "(expected) ";
  out += finding.message;
  if (!finding.missing_edge.empty()) {
    out += finding.perf ? "\n    suggested: " : "\n    required: ";
    out += finding.missing_edge;
  }
  return out;
}

namespace {

/// JSON string escaping for the SARIF writer (control chars, quotes,
/// backslashes; the findings are ASCII by construction).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct RuleDoc {
  const char* id;
  const char* text;
};

/// The §11.4 rule table, embedded so every SARIF log self-describes.
const RuleDoc kRules[] = {
    {"transfer-race",
     "host code touches the host side of an in-flight async transfer with no dominating "
     "Event wait / synchronize()"},
    {"loop-carried-race",
     "a transfer left in flight across a loop back-edge races an unsynchronized host touch "
     "or task footprint in the next iteration"},
    {"stream-not-idle",
     "hybrid::host_view() reached while enqueued work may still be in flight"},
    {"in-task-context", ".in_task() spelled outside an enqueued stream task lambda"},
    {"undeclared-task",
     "Stream::enqueue in src/hybrid/ or src/ft/ without an FTH_TASK_EFFECTS(...) declaration"},
    {"chkrow-reencode",
     "h2d into the gehrd checksum row from anything but the re-encoded row or the rollback "
     "checkpoint"},
    {"cross-stream-race",
     "a task's declared footprint covers the host side of a transfer in flight on another "
     "stream with no wait_event edge"},
    {"unbounded-pool-wait",
     "plain Event::wait() on an Event recorded on a DevicePool member's stream; a lost "
     "device hangs it forever — use wait_for(timeout)"},
    {"stale-checksum-write",
     "a task's FTH_WRITES covers FT-protected checksum storage with no dominating re-encode "
     "since the last checksum comparison"},
    // ---- §11.5 performance plane (advisory) ----
    {"redundant-wait",
     "an Event wait/wait_event whose marker is already host-ordered (or whose edge already "
     "exists) on every path reaching it: it retires nothing"},
    {"coarse-synchronize",
     "a full Stream::synchronize() where the symbolic state shows a narrower Event edge (or "
     "none at all) suffices for every host-visible obligation"},
    {"false-serialization",
     "two back-to-back tasks on one stream with disjoint declared FTH_TASK_EFFECTS "
     "footprints: FIFO order serializes work that could overlap"},
    {"over-wide-effects",
     "a declared FTH_READS/FTH_WRITES root the task body never mentions: a phantom "
     "footprint that manufactures ordering edges"},
    {"dead-transfer",
     "a d2h/h2d whose destination is overwritten before anything reads it: the copy's "
     "payload is never consumed"},
};

int rule_index(const std::string& rule) {
  int k = 0;
  for (const RuleDoc& doc : kRules) {
    if (rule == doc.id) return k;
    ++k;
  }
  return -1;
}

}  // namespace

std::string to_sarif(const std::vector<Finding>& findings) {
  std::string out;
  out +=
      "{\n"
      "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"fth_analyze\",\n"
      "          \"informationUri\": \"DESIGN.md\",\n"
      "          \"rules\": [\n";
  bool first = true;
  for (const RuleDoc& doc : kRules) {
    if (!first) out += ",\n";
    first = false;
    out += "            {\"id\": \"";
    out += doc.id;
    out += "\", \"shortDescription\": {\"text\": \"";
    out += json_escape(doc.text);
    out += "\"}}";
  }
  out +=
      "\n          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [\n";
  first = true;
  for (const Finding& f : findings) {
    if (!first) out += ",\n";
    first = false;
    std::string text = f.message;
    if (!f.missing_edge.empty()) {
      text += f.perf ? " — suggested: " : " — required: ";
      text += f.missing_edge;
    }
    if (f.expected) text += " [expected: fth-perf marker]";
    out += "        {\n          \"ruleId\": \"";
    out += json_escape(f.rule);
    out += "\",\n";
    const int idx = rule_index(f.rule);
    if (idx >= 0) {
      out += "          \"ruleIndex\": ";
      out += std::to_string(idx);
      out += ",\n";
    }
    out += "          \"level\": \"";
    out += f.perf ? "note" : "error";
    out += "\",\n          \"message\": {\"text\": \"";
    out += json_escape(text);
    out +=
        "\"},\n          \"locations\": [\n            {\"physicalLocation\": "
        "{\"artifactLocation\": {\"uri\": \"";
    out += json_escape(f.file);
    out += "\"}, \"region\": {\"startLine\": ";
    out += std::to_string(f.line);
    out += "}}}";
    // Perf findings carry their fix-it as a SARIF fix span anchored on
    // the flagged line, so CI renders the suggestion inline.
    if (f.perf && !f.missing_edge.empty()) {
      out += ",\n          \"fixes\": [\n            {\"description\": {\"text\": \"";
      out += json_escape(f.missing_edge);
      out += "\"},\n             \"artifactChanges\": [{\"artifactLocation\": {\"uri\": \"";
      out += json_escape(f.file);
      out += "\"}, \"replacements\": [{\"deletedRegion\": {\"startLine\": ";
      out += std::to_string(f.line);
      out += "}}]}]}\n          ]";
    }
    out += "\n        }";
  }
  out +=
      "\n      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

}  // namespace fth::check::analyze
