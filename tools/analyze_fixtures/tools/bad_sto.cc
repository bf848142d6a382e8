// Fixture: bare std::sto* conversions in a CLI tool. These accept
// trailing junk ("12abc" -> 12) and throw on garbage; the checked
// parsers in common/arg_parser.hh are the sanctioned replacement.
#include <string>

int
parseKnobs(const std::string &s)
{
    int v = std::stoi(s);
    double d = std::stod(s);
    // fs-analyze: allow(unchecked-sto) fixture: token pre-validated upstream
    unsigned long long u = std::stoull(s);
    return v + static_cast<int>(d) + static_cast<int>(u);
}
