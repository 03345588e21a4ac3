// Fuzzes the JSON reader (src/obs/json.cc) and the two document readers
// built on it: arbitrary bytes go through a full JsonReader walk,
// obs::AnalyzeTraceJson and tools::ParseBenchJson, which must each accept or
// fail with a clean Status — never crash, recurse without bound, or trip
// UBSan. The walk also checks the emit/read pair: every string it reads,
// re-quoted with JsonQuote, reads back equal, and every number, re-emitted
// with JsonNumber, reads back bit-identical. A walk that reads every value
// must agree with ValidateJson, which only skips.
#include <cstring>
#include <string>

#include "fuzz/fuzzer_util.h"
#include "obs/critical_path.h"
#include "obs/json.h"
#include "tools/bench_compare_lib.h"

namespace {

using autoem::obs::JsonReader;

void CheckString(const std::string& s) {
  std::string quoted = autoem::obs::JsonQuote(s);
  JsonReader reader(quoted);
  std::string back;
  AUTOEM_FUZZ_ASSERT(reader.ReadString(&back) && reader.End());
  AUTOEM_FUZZ_ASSERT(back == s);
}

void CheckNumber(double value) {
  double back = 0;
  AUTOEM_FUZZ_ASSERT(
      autoem::obs::ParseJsonNumber(autoem::obs::JsonNumber(value), &back));
  AUTOEM_FUZZ_ASSERT(std::memcmp(&back, &value, sizeof(value)) == 0);
}

// Reads one value and everything inside it. The recursion is as deep as
// the reader lets containers nest: kMaxDepth.
void Walk(JsonReader* in) {
  std::string text;
  double number = 0;
  char c = in->Peek();
  if (c == '{' && in->BeginObject()) {
    while (in->NextKey(&text)) {
      CheckString(text);
      Walk(in);
    }
  } else if (c == '[' && in->BeginArray()) {
    while (in->NextElement()) Walk(in);
  } else if (c == '"') {
    if (in->ReadString(&text)) CheckString(text);
  } else if (c == '-' || (c >= '0' && c <= '9')) {
    if (in->ReadNumber(&number)) CheckNumber(number);
  } else {
    in->SkipValue();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string text(reinterpret_cast<const char*>(data), size);
  JsonReader reader(text);
  Walk(&reader);
  reader.End();
  AUTOEM_FUZZ_ASSERT(reader.ok() == autoem::obs::ValidateJson(text).ok());

  (void)autoem::obs::AnalyzeTraceJson(text);
  (void)autoem::tools::ParseBenchJson(text);
  return 0;
}
