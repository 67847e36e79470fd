// A scoped LC_NUMERIC switch for the tests that prove machine-read
// numbers keep a '.' decimal point under a comma locale.
#pragma once

#include <clocale>
#include <cstdio>
#include <string>
#include <string_view>

namespace rtft::testsupport {

/// Restores the LC_NUMERIC locale the test found, whatever happens.
class ScopedNumericLocale {
 public:
  ScopedNumericLocale() : saved_(std::setlocale(LC_NUMERIC, nullptr)) {}
  ~ScopedNumericLocale() { std::setlocale(LC_NUMERIC, saved_.c_str()); }
  ScopedNumericLocale(const ScopedNumericLocale&) = delete;
  ScopedNumericLocale& operator=(const ScopedNumericLocale&) = delete;

  /// Tries to install a locale in which the C library really formats
  /// 0.5 as "0,5", so a test proves the '.' fix-up and not its
  /// environment; returns false when the platform ships none (the test
  /// then skips).
  bool force_comma_decimal() {
    for (const char* name :
         {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8", "de_DE",
          "fr_FR", "it_IT.UTF-8", "es_ES.UTF-8"}) {
      if (std::setlocale(LC_NUMERIC, name) == nullptr) continue;
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%.1f", 0.5);
      if (std::string_view(buf).find(',') != std::string_view::npos) {
        return true;
      }
    }
    std::setlocale(LC_NUMERIC, saved_.c_str());
    return false;
  }

 private:
  std::string saved_;
};

}  // namespace rtft::testsupport
