#include "common/config.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace dcs {

BenchScale BenchScaleFromEnv() {
  // getenv is safe here: nothing in this process calls setenv/putenv, so the
  // environment block is immutable after main() starts (see .clang-tidy).
  const char* env = std::getenv("DCS_SCALE");  // NOLINT(concurrency-mt-unsafe)
  if (env != nullptr && std::strcmp(env, "paper") == 0) {
    return BenchScale::kPaper;
  }
  return BenchScale::kSmall;
}

std::int64_t EnvInt64(const char* name, std::int64_t fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): environment is never mutated.
  const char* env = std::getenv(name);
  std::int64_t value = 0;
  return env != nullptr && ParseNumber(env, &value) ? value : fallback;
}

double EnvDouble(const char* name, double fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): environment is never mutated.
  const char* env = std::getenv(name);
  double value = 0.0;
  return env != nullptr && ParseNumber(env, &value) ? value : fallback;
}

std::string BenchScaleName(BenchScale scale) {
  return scale == BenchScale::kPaper ? "paper" : "small";
}

Flags::Flags(int argc, const char* const* argv, int first) {
  for (int i = first; i < argc && error_.ok(); ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      Fail("unexpected argument: " + arg);
    } else if (Has(arg.substr(2))) {
      Fail(arg + " given twice");
    } else {
      Entry entry{arg.substr(2), std::nullopt};
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        entry.value = argv[++i];
      }
      entries_.push_back(std::move(entry));
    }
  }
}

bool Flags::Has(std::string_view name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [name](const Entry& e) { return e.name == name; });
}

Flags::Entry* Flags::Read(std::string_view name) {
  const auto it =
      std::find_if(entries_.begin(), entries_.end(),
                   [name](const Entry& e) { return e.name == name; });
  if (it == entries_.end()) return nullptr;
  it->read = true;
  return &*it;
}

const std::string* Flags::Text(std::string_view name) {
  const Entry* entry = Read(name);
  if (entry == nullptr) return nullptr;
  if (!entry->value) Fail("--" + entry->name + " needs a value");
  return entry->value ? &*entry->value : nullptr;
}

void Flags::Fail(std::string message) {
  if (error_.ok()) error_ = Status::InvalidArgument(std::move(message));
}

bool Flags::Switch(std::string_view name) {
  const Entry* entry = Read(name);
  if (entry != nullptr && entry->value) {
    Fail("--" + entry->name + " takes no value, got " + *entry->value);
  }
  return entry != nullptr;
}

std::string Flags::String(std::string_view name, std::string fallback) {
  if (const std::string* text = Text(name)) return *text;
  return fallback;
}

bool Flags::ReadInt(std::string_view name, std::int64_t min, std::int64_t max,
                    std::int64_t* out) {
  const std::string* text = Text(name);
  if (text == nullptr) return false;
  const std::string flag = "--" + std::string(name);
  std::int64_t value = 0;
  if (!ParseNumber(*text, &value)) {
    Fail(flag + " must be an integer, got " + *text);
    return false;
  }
  if (value < min || value > max) {
    Fail(flag + " must be >= " + std::to_string(min) +
         (max == kNoMax ? "" : " and <= " + std::to_string(max)) + ", got " +
         *text);
    return false;
  }
  *out = value;
  return true;
}

Status Flags::Finish() const {
  if (!error_.ok()) return error_;
  for (const Entry& entry : entries_) {
    if (!entry.read) {
      return Status::InvalidArgument("unknown flag --" + entry.name);
    }
  }
  return Status::Ok();
}

}  // namespace dcs
