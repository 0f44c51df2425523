#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace partix {

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string_view> SplitSkipEmpty(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  for (std::string_view piece : Split(s, sep)) {
    if (!piece.empty()) out.push_back(piece);
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

bool ParseDouble(std::string_view s, double* out) {
  s = StripWhitespace(s);
  if (s.empty()) return false;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  s = StripWhitespace(s);
  if (s.empty()) return false;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

std::string FormatNumber(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "INF" : "-INF";
  double integral;
  if (std::modf(v, &integral) == 0.0 && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

namespace {
std::string EscapeXml(std::string_view s, bool attr) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        if (attr) {
          out += "&quot;";
        } else {
          out += c;
        }
        break;
      default:
        out += c;
    }
  }
  return out;
}
}  // namespace

std::string EscapeXmlText(std::string_view s) { return EscapeXml(s, false); }

std::string EscapeXmlAttr(std::string_view s) { return EscapeXml(s, true); }

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", v, kUnits[unit]);
  }
  return buf;
}

uint64_t Fnv1a64(std::string_view data, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : data) {
    h ^= static_cast<uint64_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string HashHex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

bool ParseHex64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  uint64_t value = 0;
  for (char c : s) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<uint64_t>(c - 'A' + 10);
    } else {
      return false;
    }
  }
  *out = value;
  return true;
}

bool CorruptXmlText(std::string* xml, uint64_t pick) {
  // Eligible characters: printable text content outside tags. The flip
  // swaps to a distinct printable character that needs no XML escaping,
  // so the document re-parses cleanly and the corruption is only
  // detectable by content comparison (exactly what checksums are for).
  auto eligible = [](char c, bool in_tag) {
    return !in_tag && c != '<' && c != '>' && c != '&' &&
           static_cast<unsigned char>(c) > ' ';
  };
  size_t count = 0;
  bool in_tag = false;
  for (char c : *xml) {
    if (c == '<') in_tag = true;
    if (eligible(c, in_tag)) ++count;
    if (c == '>') in_tag = false;
  }
  if (count == 0) return false;
  size_t target = static_cast<size_t>(pick % count);
  in_tag = false;
  for (char& c : *xml) {
    if (c == '<') in_tag = true;
    if (eligible(c, in_tag)) {
      if (target == 0) {
        c = c == '#' ? '~' : '#';
        return true;
      }
      --target;
    }
    if (c == '>') in_tag = false;
  }
  return false;
}

}  // namespace partix
