#include "semlock/mode_table.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "util/align.h"
#include "util/env.h"
#include "util/spinlock.h"
#include "util/striped_counter.h"

#if defined(SEMLOCK_OBS)
#include "obs/trace.h"
#endif

namespace semlock {

int stripes_from_env_text(const char* text) {
  // Auto: one stripe per hardware thread (rounded up to a power of two) so
  // fully-parallel commuting holders get disjoint lines without
  // over-allocating on small machines. hardware_concurrency may return 0.
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const int auto_stripes =
      static_cast<int>(util::StripedCounterBank::round_up_pow2(hw));
  if (text == nullptr) return auto_stripes;
  const auto parsed = util::env_int_in_range(
      "SEMLOCK_STRIPES", text, 0,
      static_cast<long long>(util::StripedCounterBank::kMaxStripes),
      "automatic stripe count");
  return parsed ? static_cast<int>(*parsed) : auto_stripes;
}

std::optional<StorageKind> storage_from_env_text(const char* text) {
  if (text == nullptr) return std::nullopt;
  if (const auto parsed = parse_storage_kind(text)) return *parsed;
  util::warn_invalid_env("SEMLOCK_STORAGE", text, "striped");
  return StorageKind::Striped;
}

namespace {

// Read each variable once per process: the knobs gate code paths chosen at
// ModeTable construction, so mid-run environment edits must not make two
// tables of the same spec disagree.
int env_counter_stripes() {
  static const int value =
      stripes_from_env_text(std::getenv("SEMLOCK_STRIPES"));
  return value;
}

std::optional<StorageKind> env_storage() {
  static const std::optional<StorageKind> value =
      storage_from_env_text(std::getenv("SEMLOCK_STORAGE"));
  return value;
}

}  // namespace

int default_counter_stripes() { return env_counter_stripes(); }
std::optional<StorageKind> default_storage() { return env_storage(); }

bool default_trace_events() {
#if defined(SEMLOCK_OBS)
  return obs::runtime_enabled();
#else
  return false;
#endif
}

namespace {

using commute::AdtSpec;
using commute::SymArg;
using commute::SymbolicSet;
using commute::SymOp;
using commute::Value;
using commute::ValueAbstraction;

void validate_sets(const AdtSpec& spec,
                   const std::vector<SymbolicSet>& sets) {
  for (const auto& set : sets) {
    if (set.empty()) {
      throw std::invalid_argument("ModeTable: empty symbolic set");
    }
    for (const auto& o : set.ops()) {
      const int m = spec.method_index(o.method);
      if (m < 0) {
        throw std::invalid_argument("ModeTable: unknown method " + o.method +
                                    " for ADT " + spec.name());
      }
      if (static_cast<int>(o.args.size()) != spec.method(m).arity) {
        throw std::invalid_argument("ModeTable: arity mismatch for " +
                                    o.method);
      }
    }
  }
}

// A site's symbolic set with its arguments resolved once: each op's method
// index, and each variable argument as an Alpha holding the variable's index
// in the site's variable order. Instantiating a tuple swaps in its alphas.
struct SiteTemplate {
  Mode mode;
  // Variable index of every Alpha argument, in op and argument order.
  std::vector<int> alpha_vars;
  // The mode's structure with the alphas left out: two sites can share a
  // mode only if their shapes are equal.
  std::string shape;
};

SiteTemplate make_template(const AdtSpec& spec, const SymbolicSet& set,
                           const std::vector<std::string>& vars) {
  SiteTemplate t;
  t.mode.ops.reserve(set.ops().size());
  for (const auto& o : set.ops()) {
    AbstractOp aop;
    aop.method = spec.method_index(o.method);
    t.shape.append(reinterpret_cast<const char*>(&aop.method),
                   sizeof(aop.method));
    aop.args.reserve(o.args.size());
    for (const auto& a : o.args) {
      switch (a.kind) {
        case SymArg::Kind::Star:
          aop.args.push_back(AbstractArg::star());
          break;
        case SymArg::Kind::Const:
          aop.args.push_back(AbstractArg::of_const(a.constant));
          break;
        case SymArg::Kind::Var: {
          const auto it = std::find(vars.begin(), vars.end(), a.var);
          assert(it != vars.end());
          const int v = static_cast<int>(it - vars.begin());
          aop.args.push_back(AbstractArg::of_alpha(v));
          t.alpha_vars.push_back(v);
          break;
        }
      }
      t.shape.push_back(static_cast<char>(aop.args.back().kind));
      if (a.kind == SymArg::Kind::Const) {
        t.shape.append(reinterpret_cast<const char*>(&a.constant),
                       sizeof(a.constant));
      }
    }
    t.shape.push_back('|');
    t.mode.ops.push_back(std::move(aop));
  }
  return t;
}

// The mode of `t` under the alpha tuple `alphas` (one per variable).
Mode instantiate(const SiteTemplate& t, const int* alphas) {
  Mode mode = t.mode;
  for (auto& o : mode.ops) {
    for (auto& a : o.args) {
      if (a.kind == AbstractArg::Kind::Alpha) a.alpha = alphas[a.alpha];
    }
  }
  return mode;
}

// Alpha patterns as a trie: one edge per alpha label, so each pattern ends
// at its own node. Node ids number the patterns, and result() memoizes F_c
// per pattern.
class PatternMemo {
 public:
  explicit PatternMemo(int labels)
      : labels_(static_cast<std::size_t>(labels)),
        child_(labels_, -1),
        result_(1, -1) {}

  // The node below `node` along `label`, created on first use.
  int step(int node, int label) {
    const std::size_t slot = static_cast<std::size_t>(node) * labels_ +
                             static_cast<std::size_t>(label);
    if (child_[slot] < 0) {
      child_[slot] = static_cast<std::int32_t>(result_.size());
      result_.push_back(-1);
      child_.resize(child_.size() + labels_, -1);
    }
    return child_[slot];
  }

  int nodes() const { return static_cast<int>(result_.size()); }

  // F_c of the pattern ending at `node`: -1 until evaluated.
  signed char& result(int node) {
    return result_[static_cast<std::size_t>(node)];
  }

 private:
  std::size_t labels_;
  std::vector<std::int32_t> child_;
  std::vector<signed char> result_;
};

}  // namespace

ModeTable ModeTable::compile(const AdtSpec& spec,
                             std::vector<SymbolicSet> site_sets,
                             const ModeTableConfig& cfg) {
  validate_sets(spec, site_sets);
  ModeTable table(spec, cfg);
  const int n = table.phi_.size();

  // --- Pre-widening to respect the per-site tuple cap. -------------------
  for (auto& set : site_sets) {
    for (;;) {
      auto vars = set.variables();
      double entries = 1.0;
      for (std::size_t i = 0; i < vars.size(); ++i) entries *= n;
      if (entries <= static_cast<double>(cfg.max_tuple_entries) ||
          vars.empty()) {
        break;
      }
      set.widen_variable(vars.back());
    }
  }

  // --- Mode enumeration (with N-bound widening loop). --------------------
  // Raw mode r is site origin_site[r] under the alpha tuple
  // alpha[first_alpha[r] .. first_alpha[r + 1]), so raw ids run site by
  // site. Within a site every tuple gives a distinct mode. A tuple repeats
  // an earlier site's mode only if that site has the same shape and some
  // tuple of it puts the same alphas in the same places; then the tuple
  // takes that mode's id.
  std::vector<SiteTemplate> templates;
  std::vector<int> origin_site;
  std::vector<int> alpha;
  std::vector<std::size_t> first_alpha;
  for (;;) {
    templates.clear();
    origin_site.clear();
    alpha.clear();
    first_alpha.assign(1, 0);
    table.sites_.clear();
    for (std::size_t t = 0; t < site_sets.size(); ++t) {
      Site site;
      site.set = site_sets[t];
      site.variables = site.set.variables();
      const auto k = site.variables.size();
      site.strides.assign(k, 1);
      std::size_t entries = 1;
      for (std::size_t i = 0; i < k; ++i) {
        site.strides[i] = static_cast<int>(entries);
        entries *= static_cast<std::size_t>(n);
      }
      site.lookup.assign(entries, -1);
      templates.push_back(make_template(spec, site.set, site.variables));
      const SiteTemplate& tmpl = templates.back();
      std::vector<std::size_t> twins;  // earlier sites of the same shape
      for (std::size_t s = 0; s < t; ++s) {
        if (templates[s].shape == tmpl.shape) twins.push_back(s);
      }
      std::vector<int> alphas(k, 0);
      std::vector<int> twin_alphas;
      for (std::size_t idx = 0; idx < entries; ++idx) {
        // Next mixed-radix tuple; variable 0 is the least significant.
        for (std::size_t i = 0; idx > 0 && i < k; ++i) {
          if (++alphas[i] < n) break;
          alphas[i] = 0;
        }
        std::int32_t id = -1;
        for (const std::size_t s : twins) {
          const Site& twin = table.sites_[s];
          const auto& twin_vars = templates[s].alpha_vars;
          twin_alphas.assign(twin.variables.size(), -1);
          bool consistent = true;
          for (std::size_t j = 0; consistent && j < twin_vars.size(); ++j) {
            int& a = twin_alphas[static_cast<std::size_t>(twin_vars[j])];
            const int want =
                alphas[static_cast<std::size_t>(tmpl.alpha_vars[j])];
            consistent = a < 0 || a == want;
            a = want;
          }
          if (!consistent) continue;
          std::size_t twin_idx = 0;
          for (std::size_t i = 0; i < twin_alphas.size(); ++i) {
            twin_idx += static_cast<std::size_t>(twin.strides[i]) *
                        static_cast<std::size_t>(twin_alphas[i]);
          }
          id = twin.lookup[twin_idx];
          break;
        }
        if (id < 0) {
          id = static_cast<std::int32_t>(origin_site.size());
          origin_site.push_back(static_cast<int>(t));
          alpha.insert(alpha.end(), alphas.begin(), alphas.end());
          first_alpha.push_back(alpha.size());
        }
        site.lookup[idx] = id;
      }
      table.sites_.push_back(std::move(site));
    }

    if (static_cast<int>(origin_site.size()) <= cfg.max_modes) break;

    // Over the bound N: widen the last variable of the site contributing
    // the most modes (its lookup table is the largest), then re-enumerate.
    std::size_t worst = 0;
    std::size_t worst_entries = 0;
    bool found = false;
    for (std::size_t s = 0; s < site_sets.size(); ++s) {
      const auto vars = site_sets[s].variables();
      if (vars.empty()) continue;
      std::size_t entries = 1;
      for (std::size_t i = 0; i < vars.size(); ++i) {
        entries *= static_cast<std::size_t>(n);
      }
      if (entries > worst_entries) {
        worst_entries = entries;
        worst = s;
        found = true;
      }
    }
    if (!found) break;  // all sets constant; cannot reduce further
    site_sets[worst].widen_variable(site_sets[worst].variables().back());
  }
  const std::size_t nr = origin_site.size();
  table.num_raw_modes_ = static_cast<int>(nr);

  // The alphas phi(c) of every constant argument.
  std::vector<int> const_alphas;
  for (const auto& site : table.sites_) {
    for (const auto& o : site.set.ops()) {
      for (const auto& a : o.args) {
        if (a.kind != SymArg::Kind::Const) continue;
        const int c = table.phi_.alpha_of(a.constant);
        if (std::find(const_alphas.begin(), const_alphas.end(), c) ==
            const_alphas.end()) {
          const_alphas.push_back(c);
        }
      }
    }
  }
  const int nk = static_cast<int>(const_alphas.size());

  // Each alpha's index in const_alphas, or -1.
  std::vector<int> const_label(alpha.size());
  for (std::size_t at = 0; at < alpha.size(); ++at) {
    const auto it =
        std::find(const_alphas.begin(), const_alphas.end(), alpha[at]);
    const_label[at] = it == const_alphas.end()
                          ? -1
                          : static_cast<int>(it - const_alphas.begin());
  }
  // The raw ids of site s are [site_begin[s], site_begin[s + 1]).
  const std::size_t num_sites = table.sites_.size();
  std::vector<std::size_t> site_begin(num_sites + 1, 0);
  for (const int s : origin_site) ++site_begin[static_cast<std::size_t>(s) + 1];
  std::partial_sum(site_begin.begin(), site_begin.end(), site_begin.begin());
  std::vector<Mode> raw_modes;
  raw_modes.reserve(nr);
  for (std::size_t r = 0; r < nr; ++r) {
    raw_modes.push_back(
        instantiate(templates[static_cast<std::size_t>(origin_site[r])],
                    alpha.data() + first_alpha[r]));
  }

  // --- F_c over raw modes, once per site pair and alpha pattern. ----------
  // modes_commute sees alphas only through definitely_differ, which tests an
  // alpha for equality with another alpha or with phi of a constant. So for
  // raw modes x of site s and y of site t, F_c(x, y) depends only on (s, t)
  // and on the pattern of x's then y's alphas: each alpha is labelled by the
  // constant whose phi it equals, else by the first-appearance order of its
  // value among the other alphas. modes_commute runs on the first pair of
  // each pattern; every later pair of it copies the result. The pairs x <= y
  // are the site blocks s <= t, in the orientation the definition is
  // evaluated in; the lower triangle mirrors the upper.
  std::vector<int> seen;  // distinct free alphas, in order of appearance
  const auto label = [&](std::size_t at) {
    if (const_label[at] >= 0) return const_label[at];
    const auto it = std::find(seen.begin(), seen.end(), alpha[at]);
    const int free_index = static_cast<int>(it - seen.begin());
    if (it == seen.end()) seen.push_back(alpha[at]);
    return nk + free_index;
  };
  // Each raw mode's own pattern, numbered per site, and its free alphas.
  // When y shares no free alpha with x, the pattern of (x, y) is x's own
  // followed by y's own, so a site pair caches F_c per pair of own patterns
  // and each row revisits only the raw modes that hold one of x's free
  // alphas.
  std::vector<std::int32_t> own_pattern(nr);
  std::vector<int> own_pattern_count(num_sites);
  std::vector<int> free_alpha;
  std::vector<std::size_t> first_free(nr + 1, 0);
  for (std::size_t s = 0; s < num_sites; ++s) {
    PatternMemo patterns(nk +
                         static_cast<int>(table.sites_[s].variables.size()));
    for (std::size_t r = site_begin[s]; r < site_begin[s + 1]; ++r) {
      seen.clear();
      int node = 0;
      for (std::size_t at = first_alpha[r]; at < first_alpha[r + 1]; ++at) {
        node = patterns.step(node, label(at));
      }
      own_pattern[r] = node;
      free_alpha.insert(free_alpha.end(), seen.begin(), seen.end());
      first_free[r + 1] = free_alpha.size();
    }
    own_pattern_count[s] = patterns.nodes();
  }
  // The raw modes of site s holding free alpha v, ascending:
  // holders[holder_begin[s * width + v] .. holder_begin[s * width + v + 1]).
  // Only sites with variables have free alphas, so width stays within the
  // tuple cap.
  const std::size_t width =
      free_alpha.empty()
          ? 0
          : static_cast<std::size_t>(
                *std::max_element(free_alpha.begin(), free_alpha.end())) + 1;
  std::vector<std::size_t> holder_begin(num_sites * width + 1, 0);
  std::vector<std::size_t> holders(free_alpha.size());
  for (std::size_t r = 0; r < nr; ++r) {
    const auto s = static_cast<std::size_t>(origin_site[r]);
    for (std::size_t f = first_free[r]; f < first_free[r + 1]; ++f) {
      ++holder_begin[s * width + static_cast<std::size_t>(free_alpha[f]) + 1];
    }
  }
  std::partial_sum(holder_begin.begin(), holder_begin.end(),
                   holder_begin.begin());
  {
    std::vector<std::size_t> cursor(holder_begin.begin(),
                                    holder_begin.end() - 1);
    for (std::size_t r = 0; r < nr; ++r) {
      const auto s = static_cast<std::size_t>(origin_site[r]);
      for (std::size_t f = first_free[r]; f < first_free[r + 1]; ++f) {
        holders[cursor[s * width + static_cast<std::size_t>(free_alpha[f])]++] =
            r;
      }
    }
  }

  std::vector<char> fc_raw(nr * nr, 0);
  std::vector<signed char> own_cache;
  for (std::size_t s = 0; s < num_sites; ++s) {
    const int ks = static_cast<int>(table.sites_[s].variables.size());
    for (std::size_t t = s; t < num_sites; ++t) {
      const int kt = static_cast<int>(table.sites_[t].variables.size());
      PatternMemo memo(nk + ks + kt);
      const auto own_t = static_cast<std::size_t>(own_pattern_count[t]);
      own_cache.assign(
          static_cast<std::size_t>(own_pattern_count[s]) * own_t, -1);
      for (std::size_t x = site_begin[s]; x < site_begin[s + 1]; ++x) {
        seen.clear();
        int x_node = 0;
        for (std::size_t at = first_alpha[x]; at < first_alpha[x + 1]; ++at) {
          x_node = memo.step(x_node, label(at));
        }
        const std::size_t x_seen = seen.size();  // x's free alphas lead
        // F_c(x, y) from the pattern of (x, y), evaluated on first sight.
        const auto eval = [&](std::size_t y) {
          seen.resize(x_seen);
          int node = x_node;
          for (std::size_t at = first_alpha[y]; at < first_alpha[y + 1];
               ++at) {
            node = memo.step(node, label(at));
          }
          signed char& c = memo.result(node);
          if (c < 0) {
            c = modes_commute(spec, table.phi_, raw_modes[x], raw_modes[y])
                    ? 1
                    : 0;
          }
          return c;
        };
        const auto shares_alpha = [&](std::size_t y) {
          const auto x_end = seen.begin() + static_cast<std::ptrdiff_t>(x_seen);
          for (std::size_t f = first_free[y]; f < first_free[y + 1]; ++f) {
            if (std::find(seen.begin(), x_end, free_alpha[f]) != x_end) {
              return true;
            }
          }
          return false;
        };
        const std::size_t y_begin = std::max(x, site_begin[t]);
        char* row = fc_raw.data() + x * nr;
        signed char* cache =
            own_cache.data() + static_cast<std::size_t>(own_pattern[x]) * own_t;
        char* column = fc_raw.data() + x;
        for (std::size_t y = y_begin; y < site_begin[t + 1]; ++y) {
          signed char& cached = cache[own_pattern[y]];
          if (cached < 0) {
            const signed char c = eval(y);
            if (!shares_alpha(y)) cached = c;
            row[y] = column[y * nr] = c;
          } else {
            row[y] = column[y * nr] = cached;
          }
        }
        for (std::size_t f = 0; f < x_seen; ++f) {
          const std::size_t at = t * width + static_cast<std::size_t>(seen[f]);
          for (std::size_t h = holder_begin[at]; h < holder_begin[at + 1];
               ++h) {
            const std::size_t y = holders[h];
            if (y >= y_begin) row[y] = column[y * nr] = eval(y);
          }
        }
      }
    }
  }

  // --- Merge indistinguishable modes (Section 5.3, optimization 1). ------
  // Rows go into an open-addressing table of canonical ids by the hash of
  // their bytes; a hash match is confirmed byte for byte. Canonical ids
  // number the distinct rows in order of their first raw mode.
  std::vector<std::int32_t> canon_of(nr);
  std::vector<std::size_t> rep;  // first raw mode of each canonical mode
  table.modes_.reserve(nr);
  if (cfg.merge_indistinguishable) {
    const auto row_of = [&](std::size_t r) {
      return std::string_view(fc_raw.data() + r * nr, nr);
    };
    const std::size_t mask = std::bit_ceil(2 * nr) - 1;
    std::vector<std::int32_t> slots(mask + 1, -1);
    std::vector<std::size_t> rep_hash;
    for (std::size_t i = 0; i < nr; ++i) {
      const std::size_t hash = std::hash<std::string_view>{}(row_of(i));
      std::size_t at = hash & mask;
      for (; slots[at] >= 0; at = (at + 1) & mask) {
        const auto c = static_cast<std::size_t>(slots[at]);
        if (rep_hash[c] == hash && row_of(rep[c]) == row_of(i)) break;
      }
      if (slots[at] < 0) {
        slots[at] = static_cast<std::int32_t>(rep.size());
        rep.push_back(i);
        rep_hash.push_back(hash);
        table.modes_.push_back(std::move(raw_modes[i]));
      } else {
        // Record the merged representative's ops for introspection.
        auto& canon_mode = table.modes_[static_cast<std::size_t>(slots[at])];
        for (const auto& o : raw_modes[i].ops) {
          if (std::find(canon_mode.ops.begin(), canon_mode.ops.end(), o) ==
              canon_mode.ops.end()) {
            canon_mode.ops.push_back(o);
          }
        }
      }
      canon_of[i] = slots[at];
    }
  } else {
    table.modes_ = std::move(raw_modes);
  }

  // --- Canonical F_c. ------------------------------------------------------
  // Without a merge the raw matrix is the canonical one. Otherwise remap
  // the per-site lookup tables onto canonical ids and copy each canonical
  // mode's row from its first raw mode (merged modes share rows and, F_c
  // being symmetric, columns).
  const std::size_t nc = table.modes_.size();
  if (nc == nr) {
    table.fc_ = std::move(fc_raw);
  } else {
    for (auto& site : table.sites_) {
      for (auto& id : site.lookup) id = canon_of[static_cast<std::size_t>(id)];
    }
    table.fc_.resize(nc * nc);
    for (std::size_t i = 0; i < nc; ++i) {
      for (std::size_t j = 0; j < nc; ++j) {
        table.fc_[i * nc + j] = fc_raw[rep[i] * nr + rep[j]];
      }
    }
  }

  // --- Conflict lists and lock partitioning (Section 5.2), in one pass. ---
  // Partitions are the connected components of the conflict graph, numbered
  // in order of their lowest mode. With partitioning disabled, all modes
  // share one partition (single internal lock — the ablation baseline).
  std::vector<std::int32_t> parent(nc);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](std::int32_t x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  auto unite = [&](std::int32_t a, std::int32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] =
        std::min(a, b);
  };
  table.conflicts_.resize(nc);
  std::vector<std::int32_t> conflicts;
  for (std::size_t i = 0; i < nc; ++i) {
    const char* row = table.fc_.data() + i * nc;
    const char* end = row + nc;
    conflicts.clear();
    for (const char* p = row;
         (p = static_cast<const char*>(std::memchr(
              p, 0, static_cast<std::size_t>(end - p)))) != nullptr;
         ++p) {
      const auto j = static_cast<std::int32_t>(p - row);
      conflicts.push_back(j);
      if (cfg.partition && j > static_cast<std::int32_t>(i)) {
        unite(static_cast<std::int32_t>(i), j);
      }
    }
    table.conflicts_[i].assign(conflicts.begin(), conflicts.end());
    if (!cfg.partition && i > 0) unite(0, static_cast<std::int32_t>(i));
  }
  table.partition_.assign(nc, 0);
  std::vector<std::int32_t> part_id(nc, -1);
  int next_part = 0;
  for (std::size_t i = 0; i < nc; ++i) {
    const std::int32_t root = find(static_cast<std::int32_t>(i));
    if (part_id[static_cast<std::size_t>(root)] < 0) {
      part_id[static_cast<std::size_t>(root)] = next_part++;
    }
    table.partition_[i] = part_id[static_cast<std::size_t>(root)];
  }
  table.num_partitions_ = next_part;
#ifndef NDEBUG
  // Invariant required by the lock mechanism: conflicting modes share a
  // partition (they are connected in the conflict graph).
  for (std::size_t i = 0; i < nc; ++i) {
    for (const std::int32_t j : table.conflicts_[i]) {
      assert(table.partition_[i] ==
             table.partition_[static_cast<std::size_t>(j)]);
    }
  }
#endif

  // --- Packed-word layout (packed_layout.h). ------------------------------
  // Field widths: carve the waiters bit out of the top and split the rest
  // evenly, capped at 8 bits — a mini-counter of 255 concurrent holders is
  // already far past any real transaction count. Every table with
  // <= kMaxPackedModes modes gets at least 7 bits, so saturation stays rare.
  {
    const int m = static_cast<int>(nc);
    if (m >= 1 && m <= kMaxPackedModes) {
      const std::uint32_t bits =
          std::min(8u, 63u / static_cast<std::uint32_t>(m));
      PackedLayout& l = table.packed_;
      l.num_modes = m;
      l.bits_per_mode = bits;
      l.field_max = (std::uint64_t{1} << bits) - 1;
      for (int i = 0; i < m; ++i) {
        PackedMode& r = l.modes[static_cast<std::size_t>(i)];
        r.shift = static_cast<std::uint32_t>(i) * bits;
        r.inc = std::uint64_t{1} << r.shift;
        r.field_mask = l.field_max << r.shift;
      }
      for (int i = 0; i < m; ++i) {
        const auto mi = static_cast<std::size_t>(i);
        for (const std::int32_t other : table.conflicts_[mi]) {
          l.modes[mi].conflict_mask |=
              l.modes[static_cast<std::size_t>(other)].field_mask;
        }
      }
      table.packed_ok_ = true;
    }
  }

  // --- Storage choice (storage_policy.h). ---------------------------------
  // Unless the config forces one, a table packs when it fits and has no
  // reader: a self-commuting mode whose conflicting modes all conflict with
  // themselves. A reader keeps its stripe row, which its conflict check never
  // sums; two self-commuting modes that conflict would sum each other's.
  const auto self_commutes = [&](std::int32_t m) {
    return table.commutes(m, m);
  };
  bool has_reader = false;
  for (std::size_t m = 0; m < nc; ++m) {
    const auto& others = table.conflicts_[m];
    has_reader = has_reader ||
                 (self_commutes(static_cast<std::int32_t>(m)) &&
                  std::none_of(others.begin(), others.end(), self_commutes));
  }
  const StorageKind wanted = cfg.storage.value_or(
      has_reader ? StorageKind::Striped : StorageKind::Packed);
  table.storage_ = wanted == StorageKind::Packed && table.packed_ok_
                       ? StorageKind::Packed
                       : StorageKind::Striped;

  // --- Stripe rows (mode_table.h). ----------------------------------------
  // Striped storage with stripes on gives each self-commuting mode the next
  // row of the instance's counter bank, in mode order.
  table.stripe_row_.assign(nc, -1);
  if (table.storage_ == StorageKind::Striped && cfg.counter_stripes > 0) {
    for (std::size_t m = 0; m < nc; ++m) {
      if (self_commutes(static_cast<std::int32_t>(m))) {
        table.stripe_row_[m] = static_cast<std::int32_t>(table.stripe_rows_++);
      }
    }
  }

  // --- Per-instance slab layout (mode_table.h). ---------------------------
  // Partition-major: each partition's counters in mode order, then its
  // spinlock. A single partition, or packed storage's spinlocks alone, have
  // no neighbour to be separated from and pack densely.
  {
    constexpr std::size_t kCounter = sizeof(std::atomic<std::uint32_t>);
    const bool counters = table.storage_ == StorageKind::Striped;
    const bool lines = counters && table.num_partitions_ > 1;
    const auto to_line = [lines](std::size_t at) {
      constexpr std::size_t kLine = util::kCacheLineSize;
      return lines ? (at + kLine - 1) / kLine * kLine : at;
    };
    // cursor[p]: partition p's counter count, then its next counter offset.
    std::vector<std::uint32_t> cursor(
        static_cast<std::size_t>(table.num_partitions_), 0);
    if (counters) {
      for (const std::int32_t p : table.partition_) {
        ++cursor[static_cast<std::size_t>(p)];
      }
    }
    std::size_t at = 0;
    for (std::uint32_t& c : cursor) {
      at = to_line(at);
      const std::size_t count = c;
      c = static_cast<std::uint32_t>(at);
      at += count * kCounter;
      table.lock_offset_.push_back(static_cast<std::uint32_t>(at));
      at += sizeof(util::Spinlock);
    }
    if (counters) {
      for (const std::int32_t p : table.partition_) {
        std::uint32_t& c = cursor[static_cast<std::size_t>(p)];
        table.counter_offset_.push_back(c);
        c += kCounter;
      }
    }
    table.slab_bytes_ = to_line(at);
    table.slab_align_ = lines ? util::kCacheLineSize : kCounter;
  }

  return table;
}

int ModeTable::resolve(int site,
                       std::span<const commute::Value> values) const {
  const Site& s = sites_[static_cast<std::size_t>(site)];
  assert(values.size() == s.variables.size());
  std::size_t idx = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    idx += static_cast<std::size_t>(s.strides[i]) *
           static_cast<std::size_t>(phi_.alpha_of(values[i]));
  }
  return s.lookup[idx];
}

std::string ModeTable::describe() const {
  std::string out = "ModeTable for ADT " + spec_->name() + " (n=" +
                    std::to_string(phi_.size()) + " abstract values)\n";
  out += "sites:\n";
  for (int s = 0; s < num_sites(); ++s) {
    out += "  site " + std::to_string(s) + ": " +
           sites_[static_cast<std::size_t>(s)].set.to_string() + "\n";
  }
  out += "modes (" + std::to_string(num_modes()) + " canonical, " +
         std::to_string(num_raw_modes_) + " raw):\n";
  for (int m = 0; m < num_modes(); ++m) {
    out += "  l" + std::to_string(m) + " = " +
           modes_[static_cast<std::size_t>(m)].to_string(*spec_) +
           "  [partition " + std::to_string(partition_of(m)) + "]\n";
  }
  out += "F_c:\n";
  for (int i = 0; i < num_modes(); ++i) {
    out += "  ";
    for (int j = 0; j < num_modes(); ++j) {
      out += commutes(i, j) ? "T " : "F ";
    }
    out += "\n";
  }
  return out;
}

}  // namespace semlock
