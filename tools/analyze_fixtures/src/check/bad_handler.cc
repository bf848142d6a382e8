// Fixture: a signal handler doing non-async-signal-safe work. The
// analyzer self-test pins every flagged line below.

#include <csignal>
#include <cstdio>
#include <cstdlib>

static void
badHandler(int sig)
{
    std::printf("caught %d\n", sig);
    char *scratch = static_cast<char *>(malloc(32));
    free(scratch);
    std::exit(1);
}

void
installBad()
{
    struct sigaction sa;
    sa.sa_handler = badHandler;
    sigaction(SIGSEGV, &sa, nullptr);
    std::signal(SIGINT, badHandler);
}
