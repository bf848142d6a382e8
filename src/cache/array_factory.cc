#include "cache/array_factory.hh"

#include "cache/fully_assoc_array.hh"
#include "cache/random_cands_array.hh"
#include "cache/set_assoc_array.hh"
#include "cache/zcache_array.hh"
#include "common/log.hh"
#include "common/random.hh"

namespace fscache
{

ArrayKind
parseArrayKind(const std::string &name)
{
    if (name == "setassoc")
        return ArrayKind::SetAssoc;
    if (name == "direct")
        return ArrayKind::DirectMapped;
    if (name == "zcache")
        return ArrayKind::ZCache;
    if (name == "random")
        return ArrayKind::RandomCands;
    if (name == "fullyassoc")
        return ArrayKind::FullyAssoc;
    fatal("unknown array kind '%s' "
          "(want setassoc|direct|zcache|random|fullyassoc)",
          name.c_str());
}

std::unique_ptr<CacheArray>
makeArray(const ArrayConfig &cfg)
{
    switch (cfg.kind) {
      case ArrayKind::SetAssoc:
        return std::make_unique<SetAssocArray>(cfg.numLines, cfg.ways,
                                               cfg.hash, cfg.seed);
      case ArrayKind::DirectMapped:
        return std::make_unique<SetAssocArray>(cfg.numLines, 1,
                                               cfg.hash, cfg.seed);
      case ArrayKind::ZCache:
        return std::make_unique<ZCacheArray>(cfg.numLines, cfg.banks,
                                             cfg.walkLevels, cfg.seed);
      case ArrayKind::RandomCands:
        return std::make_unique<RandomCandsArray>(
            cfg.numLines, cfg.randomCands, Rng(mix64(cfg.seed)));
      case ArrayKind::FullyAssoc:
        return std::make_unique<FullyAssocArray>(cfg.numLines);
    }
    panic("unreachable array kind");
}

} // namespace fscache
