#include "analyze/diagnostics.hpp"

#include <algorithm>

#include "util/str.hpp"

namespace ccmm::analyze {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

std::string ModelSplit::to_string() const {
  if (agree()) {
    return format("all models agree (%llu observer function(s))",
                  static_cast<unsigned long long>(observers));
  }
  std::string out =
      format("models split into %zu behaviour classes%s: ", classes.size(),
             truncated ? " (enumeration truncated)" : "");
  for (std::size_t i = 0; i < classes.size(); ++i) {
    if (i > 0) out += " vs ";
    out += '{';
    for (std::size_t j = 0; j < classes[i].size(); ++j) {
      if (j > 0) out += ',';
      out += classes[i][j];
    }
    out += format("}=%zu", accepted[i]);
  }
  return out;
}

std::string Diagnostic::to_string() const {
  std::string out = format("%s [%s] %s", severity_name(severity),
                           pass.c_str(), message.c_str());
  if (split.has_value()) out += "\n  " + split->to_string();
  return out;
}

std::string render_report(const std::vector<Diagnostic>& diags) {
  std::vector<const Diagnostic*> order;
  order.reserve(diags.size());
  for (const Diagnostic& d : diags) order.push_back(&d);
  std::stable_sort(order.begin(), order.end(),
                   [](const Diagnostic* x, const Diagnostic* y) {
                     return static_cast<int>(x->severity) >
                            static_cast<int>(y->severity);
                   });
  std::string out;
  for (const Diagnostic* d : order) out += d->to_string() + '\n';
  const DiagnosticCounts n = count_severities(diags);
  out += format("%zu error(s), %zu warning(s), %zu note(s)\n", n.errors,
                n.warnings, n.infos);
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20)
          out += format("\\u%04x", static_cast<unsigned>(ch));
        else
          out += ch;
    }
  }
  return out;
}

std::string render_json(const std::vector<Diagnostic>& diags) {
  std::vector<const Diagnostic*> order;
  order.reserve(diags.size());
  for (const Diagnostic& d : diags) order.push_back(&d);
  std::stable_sort(order.begin(), order.end(),
                   [](const Diagnostic* x, const Diagnostic* y) {
                     return static_cast<int>(x->severity) >
                            static_cast<int>(y->severity);
                   });
  std::string out = "{\"diagnostics\":[";
  bool first = true;
  for (const Diagnostic* d : order) {
    if (!first) out += ",";
    first = false;
    out += format("{\"severity\":\"%s\",\"pass\":\"%s\",\"message\":\"%s\"",
                  severity_name(d->severity), json_escape(d->pass).c_str(),
                  json_escape(d->message).c_str());
    if (d->a != kBottom) out += format(",\"a\":%u", d->a);
    if (d->b != kBottom) out += format(",\"b\":%u", d->b);
    if (d->loc.has_value()) out += format(",\"loc\":%u", *d->loc);
    if (d->witness.has_value())
      out += format(",\"witness_nodes\":%zu", d->witness->node_count());
    if (d->split.has_value()) {
      const ModelSplit& s = *d->split;
      out += ",\"split\":{\"classes\":[";
      for (std::size_t i = 0; i < s.classes.size(); ++i) {
        if (i > 0) out += ",";
        out += "[";
        for (std::size_t j = 0; j < s.classes[i].size(); ++j) {
          if (j > 0) out += ",";
          out += '"';
          out += json_escape(s.classes[i][j]);
          out += '"';
        }
        out += "]";
      }
      out += format("],\"observers\":%llu,\"truncated\":%s}",
                    static_cast<unsigned long long>(s.observers),
                    s.truncated ? "true" : "false");
    }
    out += "}";
  }
  const DiagnosticCounts n = count_severities(diags);
  out += format("],\"counts\":{\"errors\":%zu,\"warnings\":%zu,\"infos\":%zu}}",
                n.errors, n.warnings, n.infos);
  return out;
}

DiagnosticCounts count_severities(const std::vector<Diagnostic>& diags) {
  DiagnosticCounts n;
  for (const Diagnostic& d : diags) {
    switch (d.severity) {
      case Severity::kError:
        ++n.errors;
        break;
      case Severity::kWarning:
        ++n.warnings;
        break;
      case Severity::kInfo:
        ++n.infos;
        break;
    }
  }
  return n;
}

}  // namespace ccmm::analyze
