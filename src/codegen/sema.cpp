#include "codegen/sema.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace aalign::codegen {

AlignConfig KernelSpec::to_config() const {
  AlignConfig cfg;
  cfg.kind = kind;
  cfg.pen.query = GapScheme{open_query, ext_query};
  cfg.pen.subject = GapScheme{open_subject, ext_subject};
  return cfg;
}

std::string KernelSpec::summary() const {
  std::ostringstream os;
  os << "algorithm      : "
     << (kind == AlignKind::Local
             ? "local (Smith-Waterman family)"
             : kind == AlignKind::Global ? "global (Needleman-Wunsch family)"
                                         : "semi-global")
     << "\n";
  os << "gap system     : " << to_string(gap) << "\n";
  os << "query gaps     : open " << open_query << ", extend " << ext_query
     << "\n";
  os << "subject gaps   : open " << open_subject << ", extend " << ext_subject
     << "\n";
  os << "matrix         : " << matrix << "\n";
  os << "working table  : " << table << "\n";
  os << "query sequence : " << query_seq << " (inner loop axis)\n";
  os << "subject seq    : " << subject_seq << " (outer loop axis)\n";
  os << "scan eligible  : " << (scan_eligible ? "yes" : "no (striped-iterate only)")
     << "\n";
  for (const std::string& w : warnings) os << "warning        : " << w << "\n";
  return os.str();
}

namespace {

// An Add flattened to: referenced cells + fully resolved constant part.
struct FlatAdd {
  std::vector<const Expr*> cells;
  long const_sum = 0;
  bool resolvable = true;  // false if it contains Mul/unknown idents
};

void flatten_into(const Expr& e, const std::map<std::string, long>& consts,
                  long sign, FlatAdd& out) {
  switch (e.kind) {
    case Expr::Kind::Number:
      out.const_sum += sign * e.number;
      break;
    case Expr::Kind::ConstRef: {
      auto it = consts.find(e.name);
      if (it == consts.end()) {
        out.resolvable = false;
      } else {
        out.const_sum += sign * it->second;
      }
      break;
    }
    case Expr::Kind::Cell:
      out.cells.push_back(&e);
      break;
    case Expr::Kind::Neg:
      flatten_into(e.args[0], consts, -sign, out);
      break;
    case Expr::Kind::Add:
      for (const Expr& a : e.args) flatten_into(a, consts, sign, out);
      break;
    case Expr::Kind::Mul:
    case Expr::Kind::Max:
      out.resolvable = false;
      break;
  }
}

// True when `v` fits the KernelSpec's int weight fields exactly. Sums of
// literals (each at most kMaxLiteral) can leave that range.
bool fits_int(long v) {
  return v >= std::numeric_limits<int>::min() &&
         v <= std::numeric_limits<int>::max();
}

FlatAdd flatten_add(const Expr& e, const std::map<std::string, long>& consts) {
  FlatAdd out;
  flatten_into(e, consts, 1, out);
  return out;
}

// Offset of a 2-index cell relative to loop vars (outer, inner); returns
// false when the subscripts use anything else.
bool cell_offsets(const Expr& cell, const std::string& ov,
                  const std::string& iv, long& dout, long& din) {
  if (cell.kind != Expr::Kind::Cell || cell.index.size() != 2) return false;
  const IndexRef& a = cell.index[0];
  const IndexRef& b = cell.index[1];
  if (!a.seq.empty() || !b.seq.empty()) return false;
  if (a.var != ov || b.var != iv) return false;
  dout = a.off;
  din = b.off;
  return true;
}

bool is_matrix_lookup(const Expr& cell) {
  return cell.kind == Expr::Kind::Cell && cell.index.size() == 2 &&
         !cell.index[0].seq.empty() && !cell.index[1].seq.empty();
}

// Finds the doubly nested compute loop.
const ForLoop* find_compute_loop(const std::vector<ForLoop>& loops,
                                 const ForLoop** inner_out) {
  for (const ForLoop& outer : loops) {
    for (const ForLoop& inner : outer.loops) {
      if (!inner.assigns.empty()) {
        *inner_out = &inner;
        return &outer;
      }
    }
    const ForLoop* rec_inner = nullptr;
    const ForLoop* rec = find_compute_loop(outer.loops, &rec_inner);
    if (rec != nullptr) {
      *inner_out = rec_inner;
      return rec;
    }
  }
  return nullptr;
}

struct GapArm {
  long ext_step = 0;    // additive value on the self-reference arm
  long first_step = 0;  // additive value on the T-reference arm
  std::string self_table;
};

std::string index_to_string(const IndexRef& ix) {
  std::string s;
  if (!ix.var.empty()) {
    s += ix.var;
    // Appended in two steps: "+" + to_string(...) trips GCC 12's
    // -Wrestrict false positive (PR105329) under -Werror.
    if (ix.off > 0) s += '+';
    if (ix.off != 0) s += std::to_string(ix.off);
  } else {
    s += std::to_string(ix.off);
  }
  return s;
}

std::string cell_to_string(const Expr& c) {
  std::string s = c.name;
  for (const IndexRef& ix : c.index) {
    s += '[';
    if (!ix.seq.empty()) {
      s += "ctoi(" + ix.seq + "[" + index_to_string(ix) + "])";
    } else {
      s += index_to_string(ix);
    }
    s += ']';
  }
  return s;
}

void collect_cells(const Expr& e, std::vector<const Expr*>& out) {
  if (e.kind == Expr::Kind::Cell) {
    out.push_back(&e);
    return;
  }
  for (const Expr& a : e.args) collect_cells(a, out);
}

void collect_const_refs(const Expr& e, std::vector<const Expr*>& out) {
  if (e.kind == Expr::Kind::ConstRef) out.push_back(&e);
  for (const Expr& a : e.args) collect_const_refs(a, out);
}

// Walks every Assign in the program (boundary loops included).
template <typename Fn>
void for_each_assign(const std::vector<ForLoop>& loops, Fn&& fn) {
  for (const ForLoop& l : loops) {
    for (const Assign& a : l.assigns) fn(a);
    for_each_assign(l.loops, fn);
  }
}

template <typename Fn>
void for_each_loop(const std::vector<ForLoop>& loops, Fn&& fn) {
  for (const ForLoop& l : loops) {
    fn(l);
    for_each_loop(l.loops, fn);
  }
}

// Pass 1: constant discipline - every identifier used as a constant must be
// declared (AA033) and every declared constant must be used somewhere: in an
// expression, in another constant's initializer, or as a loop bound (AA034).
void check_constants(const Program& program, DiagnosticEngine& diags) {
  std::set<std::string> loop_names;
  for_each_loop(program.loops, [&](const ForLoop& l) {
    loop_names.insert(l.var);
    if (!l.bound_ident.empty()) loop_names.insert(l.bound_ident);
  });

  std::set<std::string> used(program.const_init_refs.begin(),
                             program.const_init_refs.end());
  for_each_loop(program.loops, [&](const ForLoop& l) {
    if (!l.bound_ident.empty()) used.insert(l.bound_ident);
  });

  auto visit = [&](const Assign& a) {
    std::vector<const Expr*> refs;
    for (const Expr& t : a.targets) collect_const_refs(t, refs);
    collect_const_refs(a.value, refs);
    for (const Expr* r : refs) {
      if (program.consts.count(r->name) != 0) {
        used.insert(r->name);
      } else if (loop_names.count(r->name) == 0) {
        diags.error("AA033", r->span(),
                    "use of undeclared constant '" + r->name + "'");
      }
    }
  };
  for (const Assign& a : program.top_assigns) visit(a);
  for_each_assign(program.loops, visit);

  for (const std::string& name : program.const_order) {
    if (used.count(name) != 0) continue;
    SourceSpan span;
    auto it = program.const_spans.find(name);
    if (it != program.const_spans.end()) span = it->second;
    diags.warn("AA034", span, "constant '" + name + "' is never used");
  }
}

// Pass 3: dependency-distance analysis over the compute loop. The wavefront
// transformation (paper Sec. IV) is only valid when every cell reference is
// a paradigm neighbour of the cell being computed.
void check_dependencies(const ForLoop& inner, const std::string& ov,
                        const std::string& iv, DiagnosticEngine& diags) {
  auto check_cell = [&](const Expr& c, bool is_target) {
    if (is_matrix_lookup(c)) {
      for (const IndexRef& ix : c.index) {
        if (ix.var != ov && ix.var != iv) {
          diags.error("AA031", c.span(),
                      "substitution lookup '" + c.name +
                          "' must index its sequences by the loop variables "
                          "'" + ov + "' and '" + iv + "'");
          return;
        }
      }
      return;
    }
    if (c.index.size() != 2) {
      diags.error("AA031", c.span(),
                  "table reference '" + cell_to_string(c) +
                      "' must use two subscripts, [" + ov + "][" + iv + "]");
      return;
    }
    const IndexRef& a = c.index[0];
    const IndexRef& b = c.index[1];
    if (!a.seq.empty() || !b.seq.empty() || a.var != ov || b.var != iv) {
      diags.error("AA031", c.span(),
                  "subscripts of '" + cell_to_string(c) +
                      "' must be affine in the loop variables with the "
                      "outer variable '" + ov + "' first and the inner "
                      "variable '" + iv + "' second");
      return;
    }
    const long di = a.off, dj = b.off;
    if (is_target) {
      if (di != 0 || dj != 0) {
        diags.error("AA030", c.span(),
                    "out-of-paradigm dependency: assignment target '" +
                        cell_to_string(c) + "' must be the current cell " +
                        "[" + ov + "][" + iv + "]");
      }
      return;
    }
    const bool paradigm = (di == 0 && dj == 0) || (di == -1 && dj == 0) ||
                          (di == 0 && dj == -1) || (di == -1 && dj == -1);
    if (!paradigm) {
      Diagnostic& d = diags.error(
          "AA030", c.span(),
          "out-of-paradigm dependency distance: '" + cell_to_string(c) +
              "' is not a paradigm neighbour of the cell [" + ov + "][" + iv +
              "] being computed");
      d.fixit = "every cell reference must be one of [" + ov + "-1][" + iv +
                "-1], [" + ov + "-1][" + iv + "], [" + ov + "][" + iv +
                "-1], or [" + ov + "][" + iv + "]";
    }
  };

  for (const Assign& a : inner.assigns) {
    for (const Expr& t : a.targets) check_cell(t, /*is_target=*/true);
    std::vector<const Expr*> cells;
    collect_cells(a.value, cells);
    for (const Expr* c : cells) check_cell(*c, /*is_target=*/false);
  }
}

SourceSpan assign_span(const Assign& a) {
  if (!a.targets.empty()) return a.targets[0].span();
  return SourceSpan{a.line, 0, 0};
}

}  // namespace

KernelSpec verify(const Program& program, DiagnosticEngine& diags) {
  KernelSpec spec;

  check_constants(program, diags);

  const ForLoop* inner = nullptr;
  const ForLoop* outer = find_compute_loop(program.loops, &inner);
  if (outer == nullptr) {
    const int line = program.loops.empty() ? 0 : program.loops.front().line;
    diags.error("AA020", SourceSpan{line, 0, 0},
                "paradigm violation: no doubly nested loop with recurrences "
                "found");
    return spec;
  }
  const std::string& ov = outer->var;
  const std::string& iv = inner->var;

  check_dependencies(*inner, ov, iv, diags);

  // Pass 4a: find the D recurrence (diagonal + substitution) - it pins down
  // the working table, the matrix, and the sequence roles.
  std::string d_table;
  for (const Assign& a : inner->assigns) {
    if (a.targets.size() != 1) continue;
    const FlatAdd flat = flatten_add(a.value, program.consts);
    if (a.value.kind != Expr::Kind::Max && flat.cells.size() == 2) {
      const Expr* diag = nullptr;
      const Expr* lookup = nullptr;
      for (const Expr* c : flat.cells) {
        long dout, din;
        if (is_matrix_lookup(*c)) {
          lookup = c;
        } else if (cell_offsets(*c, ov, iv, dout, din) && dout == -1 &&
                   din == -1) {
          diag = c;
        }
      }
      if (diag != nullptr && lookup != nullptr) {
        d_table = a.targets[0].name;
        spec.table = diag->name;
        spec.matrix = lookup->name;
        for (const IndexRef& ix : lookup->index) {
          if (ix.var == iv) {
            spec.query_seq = ix.seq;
          } else if (ix.var == ov) {
            spec.subject_seq = ix.seq;
          }
        }
      }
    }
  }
  if (spec.table.empty()) {
    diags.error("AA021", SourceSpan{inner->line, 0, 0},
                "paradigm violation: no diagonal+substitution (D) recurrence "
                "found");
    // Without the working table the remaining extraction has nothing to
    // anchor on; stop here instead of cascading secondary errors.
    return spec;
  }
  if (spec.query_seq.empty() || spec.subject_seq.empty()) {
    diags.error("AA022", SourceSpan{inner->line, 0, 0},
                "paradigm violation: substitution lookup must index one "
                "sequence by the inner loop variable and one by the outer");
  }

  // Pass 4b: gap recurrences. X[.][.] = max(X[prev]+ext, T[prev]+first)
  // where prev is (-1,0) on the outer axis (subject gap / L) or (0,-1) on
  // the inner axis (query gap / U). A max-assignment to a gap table that
  // fits neither the affine (Eqs. 3-4) nor the linear (Eqs. 5-6) shape is
  // reported, not silently skipped.
  bool have_l = false, have_u = false;
  bool u_from_recurrence = false;
  std::string l_table, u_table;
  auto classify_gap = [&](const Assign& a) {
    if (a.targets.size() != 1 || a.value.kind != Expr::Kind::Max) return;
    const std::string& target = a.targets[0].name;
    if (target == d_table || target == spec.table) return;

    auto misshapen = [&]() {
      diags.error("AA032", assign_span(a),
                  "recurrence for '" + target +
                      "' fits neither the affine gap shape max(" + target +
                      "[prev]+EXT, " + spec.table +
                      "[prev]+FIRST) (Eqs. 3-4) nor the linear gap shape "
                      "(inline " + spec.table + "[prev]+GAP arm, Eqs. 5-6)");
    };
    if (a.value.args.size() != 2) {
      misshapen();
      return;
    }

    GapArm arm;
    int matched = 0;
    long axis_dout = 0, axis_din = 0;
    bool first_arm = true;
    for (const Expr& raw : a.value.args) {
      const FlatAdd flat = flatten_add(raw, program.consts);
      if (!flat.resolvable || flat.cells.size() != 1) {
        misshapen();
        return;
      }
      long dout, din;
      if (!cell_offsets(*flat.cells[0], ov, iv, dout, din)) {
        misshapen();
        return;
      }
      if (!((dout == -1 && din == 0) || (dout == 0 && din == -1))) {
        misshapen();
        return;
      }
      if (!first_arm && (dout != axis_dout || din != axis_din)) {
        // Arms straddle two axes - not a gap recurrence along either.
        misshapen();
        return;
      }
      const std::string& ref = flat.cells[0]->name;
      if (ref == target) {
        arm.ext_step = flat.const_sum;
        arm.self_table = ref;
      } else if (ref == spec.table) {
        arm.first_step = flat.const_sum;
      } else {
        misshapen();
        return;
      }
      axis_dout = dout;
      axis_din = din;
      first_arm = false;
      ++matched;
    }
    if (matched != 2 || arm.self_table.empty()) {
      misshapen();
      return;
    }

    const long ext = -arm.ext_step;
    const long open = -arm.first_step - ext;
    if (ext <= 0 || open < 0) {
      diags.error("AA023", assign_span(a),
                  "gap recurrence for '" + target +
                      "' has non-penalty constants (extend must be negative, "
                      "|first| >= |extend|)");
      return;
    }
    if (!fits_int(open) || !fits_int(ext)) {
      diags.error("AA027", assign_span(a),
                  "gap recurrence for '" + target +
                      "' has constants outside the int range");
      return;
    }
    if (axis_dout == -1 && axis_din == 0) {
      spec.open_subject = static_cast<int>(open);
      spec.ext_subject = static_cast<int>(ext);
      l_table = target;
      have_l = true;
    } else {
      spec.open_query = static_cast<int>(open);
      spec.ext_query = static_cast<int>(ext);
      u_table = target;
      have_u = true;
      u_from_recurrence = true;
    }
  };
  for (const Assign& a : inner->assigns) classify_gap(a);

  // Pass 4c: the working-table max. Detects local (literal 0 operand), the
  // inline linear gap arms, and - when a dedicated U recurrence already
  // supplied the query-axis weights - a second, conflicting weight pair
  // along the query axis (AA035: breaks the weighted max-scan).
  bool found_t_assign = false;
  bool is_local = false;
  for (const Assign& a : inner->assigns) {
    if (a.targets.size() != 1 || a.targets[0].name != spec.table) continue;
    if (a.value.kind != Expr::Kind::Max) continue;
    found_t_assign = true;
    for (const Expr& arg : a.value.args) {
      if (arg.kind == Expr::Kind::Number && arg.number == 0) {
        is_local = true;
        continue;
      }
      const FlatAdd flat = flatten_add(arg, program.consts);
      if (flat.cells.size() != 1 || !flat.resolvable) continue;
      long dout, din;
      if (!cell_offsets(*flat.cells[0], ov, iv, dout, din)) continue;
      if (flat.cells[0]->name != spec.table) continue;
      if (!fits_int(-flat.const_sum)) {
        diags.error("AA027", flat.cells[0]->span(),
                    "inline gap arm has a constant outside the int range");
        continue;
      }
      // Inline linear arm: T[prev] + GAP.
      if (dout == -1 && din == 0 && !have_l) {
        spec.open_subject = 0;
        spec.ext_subject = static_cast<int>(-flat.const_sum);
        have_l = true;
      } else if (dout == 0 && din == -1) {
        if (!have_u) {
          spec.open_query = 0;
          spec.ext_query = static_cast<int>(-flat.const_sum);
          have_u = true;
        } else if (u_from_recurrence) {
          const std::string msg =
              "query-axis gap is expressed through two different (first, "
              "extend) weight pairs ('" + u_table + "' recurrence plus an "
              "inline '" + cell_to_string(*flat.cells[0]) + "' arm); the "
              "weighted max-scan precondition (single weight pair along the "
              "query, Fig. 8) fails - only striped-iterate will be emitted";
          diags.warn("AA035", flat.cells[0]->span(), msg);
          spec.warnings.push_back(msg);
          spec.scan_eligible = false;
        }
      }
    }
  }
  if (!found_t_assign) {
    // The D-form `T = max(...)` may assign through D; accept T==D merges.
    if (d_table != spec.table) {
      diags.error("AA024", SourceSpan{inner->line, 0, 0},
                  "paradigm violation: no max-assignment to table '" +
                      spec.table + "' found");
    }
  }
  if (!have_l || !have_u) {
    std::string missing;
    if (!have_u) missing += "along the query (U)";
    if (!have_l) {
      if (!missing.empty()) missing += " and ";
      missing += "along the subject (L)";
    }
    diags.error("AA025", SourceSpan{inner->line, 0, 0},
                "paradigm violation: missing gap recurrence " + missing);
  }
  spec.kind = is_local ? AlignKind::Local : AlignKind::Global;
  spec.gap = (spec.open_query == 0 && spec.open_subject == 0)
                 ? GapModel::Linear
                 : GapModel::Affine;

  // Pass 4d (lenient): boundary initialization consistency.
  bool saw_zero_init = false, saw_gapped_init = false;
  for (const ForLoop& loop : program.loops) {
    if (&loop == outer) continue;
    for (const Assign& a : loop.assigns) {
      for (const Expr& t : a.targets) {
        if (t.name != spec.table) continue;
        if (a.value.kind == Expr::Kind::Number && a.value.number == 0) {
          saw_zero_init = true;
        } else {
          saw_gapped_init = true;
        }
      }
    }
  }
  if (spec.kind == AlignKind::Local && saw_gapped_init) {
    const std::string msg =
        "local alignment detected (0 in max) but boundary init is not zero";
    diags.warn("AA040", SourceSpan{outer->line, 0, 0}, msg);
    spec.warnings.push_back(msg);
  }
  if (spec.kind == AlignKind::Global && saw_zero_init && !saw_gapped_init) {
    const std::string msg =
        "global alignment detected but boundaries initialize to zero; "
        "generated code uses the standard gapped NW boundary";
    diags.warn("AA041", SourceSpan{outer->line, 0, 0}, msg);
    spec.warnings.push_back(msg);
  }

  if ((have_u && spec.ext_query == 0) || (have_l && spec.ext_subject == 0)) {
    diags.error("AA026", SourceSpan{inner->line, 0, 0},
                "gap extend penalties must be non-zero");
  }
  return spec;
}

}  // namespace aalign::codegen
